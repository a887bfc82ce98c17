package sysboard_test

import (
	"errors"
	"testing"

	"repro/internal/hw"
	"repro/internal/hw/hwtest"
	"repro/internal/hw/sysboard"
)

func TestStrayWritesWedge(t *testing.T) {
	bus := hw.NewBus()
	if err := sysboard.MapAll(bus); err != nil {
		t.Fatal(err)
	}
	for _, port := range []hw.Port{0x00, 0x20, 0x21, 0x40, 0x43, 0x60, 0x70, 0xa0, 0xc0} {
		err := bus.Out8(port, 0x42)
		var wedge *sysboard.WedgeError
		if !errors.As(err, &wedge) {
			t.Errorf("write to %#x: got %v, want WedgeError", port, err)
		}
	}
}

func TestStrayReadsFloat(t *testing.T) {
	bus := hw.NewBus()
	if err := sysboard.MapAll(bus); err != nil {
		t.Fatal(err)
	}
	v, err := bus.In8(0x21)
	if err != nil {
		t.Fatalf("read of PIC mask errored: %v", err)
	}
	if v != 0xff {
		t.Errorf("system device read = %#x, want 0xff", v)
	}
}

func TestRegionsDoNotOverlapExpansionSpace(t *testing.T) {
	for _, r := range sysboard.Regions() {
		if r.Base+r.Size > 0x100 {
			t.Errorf("%s extends past the system-device area: %#x+%#x",
				r.Name, r.Base, r.Size)
		}
	}
	// All regions must coexist on one bus.
	bus := hw.NewBus()
	if err := sysboard.MapAll(bus); err != nil {
		t.Fatal(err)
	}
}

func TestStrayReadsStable(t *testing.T) {
	bus := hw.NewBus()
	if err := sysboard.MapAll(bus); err != nil {
		t.Fatal(err)
	}
	clock := &hw.Clock{}
	for _, r := range sysboard.Regions() {
		if until := hwtest.CheckStable(t, bus, clock, r.Base, hw.Width8, 4); until != hw.Forever {
			t.Errorf("%s window ends at %d, want forever", r.Name, until)
		}
	}
}
