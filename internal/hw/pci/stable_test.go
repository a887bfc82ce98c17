package pci_test

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/hw/hwtest"
	"repro/internal/hw/pci"
)

func TestStableTransfer(t *testing.T) {
	bus, clock, _ := newRig(t)
	for _, p := range []hw.Port{0xc000, 0xc002, 0xc004} {
		if until := hwtest.CheckStable(t, bus, clock, p, hw.Width8, 16); until != hw.Forever {
			t.Errorf("idle port %#x window ends at %d, want forever", uint32(p), until)
		}
	}
	if err := bus.Out8(0xc000, pci.BMStart); err != nil {
		t.Fatal(err)
	}
	// The command and descriptor registers never change on their own;
	// the status register holds until the transfer completes, exactly.
	hwtest.CheckStable(t, bus, clock, 0xc000, hw.Width8, 4)
	hwtest.CheckStable(t, bus, clock, 0xc004, hw.Width32, 4)
	until := hwtest.CheckStable(t, bus, clock, 0xc002, hw.Width8, 1000)
	if until == hw.Forever {
		t.Fatal("active transfer reported stable forever")
	}
	clock.Tick(until - clock.Now())
	if s, _ := bus.In8(0xc002); s&pci.BMActive != 0 || s&pci.BMInterrupt == 0 {
		t.Errorf("status at the window's end = %#x, want completed", s)
	}
	if until := hwtest.CheckStable(t, bus, clock, 0xc002, hw.Width8, 16); until != hw.Forever {
		t.Errorf("completed status window ends at %d, want forever", until)
	}
}
