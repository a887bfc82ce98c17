package ide_test

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/hw/hwtest"
	"repro/internal/hw/ide"
)

// taskFile lists every command-block register but the data port, and
// the control block's alternate status.
var taskFile = []hw.Port{0x1f1, 0x1f2, 0x1f3, 0x1f4, 0x1f5, 0x1f6, 0x1f7, 0x3f6}

// checkQuiet requires the task file (and, with data set, the floating
// data port) to share one window, runs the Stable contract on each for
// a tick, then on the status register through the whole window (up to
// a horizon), and returns the window's end.
func (r *rig) checkQuiet(t *testing.T, data bool) uint64 {
	t.Helper()
	ports := taskFile
	if data {
		ports = append(ports, 0x1f0)
	}
	until, _ := r.bus.StableUntil(0x1f7, hw.Width8, r.clock.Now())
	for _, p := range ports {
		width := hw.Width8
		if p == 0x1f0 {
			width = hw.Width16
		}
		if got, ok := r.bus.StableUntil(p, width, r.clock.Now()); !ok || got != until {
			t.Fatalf("port %#x: window (%d, %v), want the status window's %d", uint32(p), got, ok, until)
		}
		hwtest.CheckStable(t, r.bus, r.clock, p, width, 2)
	}
	return hwtest.CheckStable(t, r.bus, r.clock, 0x1f7, hw.Width8, 1<<16)
}

func TestStableIdleForever(t *testing.T) {
	r := newRig(t, 8)
	if until := r.checkQuiet(t, true); until != hw.Forever {
		t.Errorf("idle controller window ends at %d, want forever", until)
	}
	if _, ok := r.ctrl.StableUntil(8, hw.Width8, 0); ok {
		t.Error("nonexistent register reported stable")
	}
}

func TestStableBusyPhase(t *testing.T) {
	r := newRig(t, 8)
	r.out8(t, 0x1f6, 0xa0)
	r.out8(t, 0x1f7, ide.CmdIdentify)
	until := r.checkQuiet(t, true)
	if until == hw.Forever || until <= r.clock.Now() {
		t.Fatalf("busy window ends at %d (now %d), want the busy phase's end", until, r.clock.Now())
	}
	// The window is tight: at its end the busy phase resolves into DRQ.
	r.clock.Tick(until - r.clock.Now())
	if s := r.in8(t, 0x1f7); s&ide.StatusBusy != 0 || s&ide.StatusDataRequest == 0 {
		t.Fatalf("status at the window's end = %#x, want DRQ", s)
	}
	// A PIO read phase: the data port consumes a word per read.
	hwtest.CheckUnstable(t, r.bus, r.clock, 0x1f0, hw.Width16)
	if got := r.checkQuiet(t, false); got != hw.Forever {
		t.Errorf("DRQ task file window ends at %d, want forever", got)
	}
	r.readDataSector(t)
	if until := r.checkQuiet(t, true); until != hw.Forever {
		t.Errorf("window after the transfer ends at %d, want forever", until)
	}
}

func TestStableSoftReset(t *testing.T) {
	r := newRig(t, 8)
	r.out8(t, 0x3f6, 0x0c) // SRST asserted: busy until released
	if until := r.checkQuiet(t, true); until != hw.Forever {
		t.Errorf("asserted reset window ends at %d, want forever (only a write ends it)", until)
	}
	r.out8(t, 0x3f6, 0x08) // released: busy for the reset delay
	until := r.checkQuiet(t, true)
	if until == hw.Forever {
		t.Fatal("released reset reported stable forever")
	}
	r.clock.Tick(until - r.clock.Now())
	if s := r.in8(t, 0x3f6); s&ide.StatusBusy != 0 {
		t.Errorf("alternate status at the window's end = %#x, want not busy", s)
	}
}
