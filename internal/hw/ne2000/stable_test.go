package ne2000_test

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/hw/hwtest"
)

func TestStableRegisters(t *testing.T) {
	bus, _ := newRig(t)
	clock := &hw.Clock{} // the NIC has no clock: time alone changes nothing
	setupCore(t, bus)
	for page, cr := range []uint8{0x22, 0x62} {
		out(t, bus, 0x300, cr)
		for off := hw.Port(0); off < 16; off++ {
			if page == 0 && off >= 13 {
				// Tally counters clear on read.
				hwtest.CheckUnstable(t, bus, clock, 0x300+off, hw.Width8)
				continue
			}
			if until := hwtest.CheckStable(t, bus, clock, 0x300+off, hw.Width8, 8); until != hw.Forever {
				t.Errorf("page %d register %d window ends at %d, want forever", page, off, until)
			}
		}
	}
	// The reset port resets the adapter on every read.
	hwtest.CheckUnstable(t, bus, clock, 0x31f, hw.Width8)
}

func TestStableRemoteDMA(t *testing.T) {
	bus, _ := newRig(t)
	clock := &hw.Clock{}
	setupCore(t, bus)
	if until := hwtest.CheckStable(t, bus, clock, 0x310, hw.Width16, 8); until != hw.Forever {
		t.Errorf("idle data port window ends at %d, want forever", until)
	}
	dmaWrite(t, bus, 0x4000, []byte{1, 2, 3, 4})
	// A remote read in progress: every data-port read consumes a word.
	out(t, bus, 0x308, 0x00)
	out(t, bus, 0x309, 0x40)
	out(t, bus, 0x30a, 4)
	out(t, bus, 0x30b, 0)
	out(t, bus, 0x300, 0x0a)
	hwtest.CheckUnstable(t, bus, clock, 0x310, hw.Width16)
	for i := 0; i < 2; i++ {
		if _, err := bus.In16(0x310); err != nil {
			t.Fatal(err)
		}
	}
	// The byte count ran out: the port floats again.
	if until := hwtest.CheckStable(t, bus, clock, 0x310, hw.Width16, 8); until != hw.Forever {
		t.Errorf("finished remote read window ends at %d, want forever", until)
	}
}
