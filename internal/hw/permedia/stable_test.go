package permedia_test

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/hw/hwtest"
	"repro/internal/hw/permedia"
)

// Control-register ports of the rig's aperture.
const (
	portReset    = 0x8000
	portIntFlags = 0x8002
	portFIFOSpc  = 0x8003
	portDMACount = 0x8006
	portVTotal   = 0x8010
	portVideoCtl = 0x8014
	portLine     = 0x8015
	portFIFO     = 0x9000
)

func out32(t *testing.T, bus *hw.Bus, port hw.Port, v uint32) {
	t.Helper()
	if err := bus.Out32(port, v); err != nil {
		t.Fatal(err)
	}
}

// checkTight runs the contract on port and requires its value to change
// at the window's end.
func checkTight(t *testing.T, bus *hw.Bus, clock *hw.Clock, port hw.Port) {
	t.Helper()
	before, _ := bus.In32(port)
	until := hwtest.CheckStable(t, bus, clock, port, hw.Width32, 1<<20)
	if until == hw.Forever {
		t.Fatalf("port %#x reported stable forever", uint32(port))
	}
	clock.Tick(until - clock.Now())
	if after, _ := bus.In32(port); after == before {
		t.Errorf("port %#x still reads %#x at its window's end %d", uint32(port), after, until)
	}
}

func TestStableIdleForever(t *testing.T) {
	bus, clock, _ := newRig(t)
	for off := hw.Port(0); off < 24; off++ {
		if until := hwtest.CheckStable(t, bus, clock, 0x8000+off, hw.Width32, 8); until != hw.Forever {
			t.Errorf("idle register %d window ends at %d, want forever", off, until)
		}
	}
	if until := hwtest.CheckStable(t, bus, clock, portFIFO, hw.Width32, 8); until != hw.Forever {
		t.Errorf("FIFO port window ends at %d, want forever", until)
	}
}

func TestStableResetPhase(t *testing.T) {
	bus, clock, _ := newRig(t)
	out32(t, bus, portReset, 1)
	checkTight(t, bus, clock, portReset)
}

func TestStableFIFODrain(t *testing.T) {
	bus, clock, gpu := newRig(t)
	for i := uint32(0); i < 4; i++ {
		out32(t, bus, portFIFO, i)
	}
	for gpu.FIFODepth() > 0 {
		checkTight(t, bus, clock, portFIFOSpc)
	}
	if until := hwtest.CheckStable(t, bus, clock, portFIFOSpc, hw.Width32, 64); until != hw.Forever {
		t.Errorf("drained FIFO space window ends at %d, want forever", until)
	}
}

func TestStableDMA(t *testing.T) {
	bus, clock, _ := newRig(t)
	out32(t, bus, portDMACount, 96) // a whole number of ticks' worth
	if until := hwtest.CheckStable(t, bus, clock, portDMACount, hw.Width32, 8); until != clock.Now()+1 {
		t.Errorf("running DMA count window ends at %d, want the next tick %d", until, clock.Now()+1)
	}
	checkTight(t, bus, clock, portIntFlags)
	if flags, _ := bus.In32(portIntFlags); flags&permedia.IntDMA == 0 {
		t.Fatalf("flags at the window's end = %#x, want the DMA interrupt", flags)
	}
	// A latched flag does not end the window again.
	out32(t, bus, portDMACount, 100)
	if until := hwtest.CheckStable(t, bus, clock, portIntFlags, hw.Width32, 64); until != hw.Forever {
		t.Errorf("latched DMA flag window ends at %d, want forever", until)
	}
}

func TestStableVideo(t *testing.T) {
	bus, clock, _ := newRig(t)
	out32(t, bus, portVTotal, 64)
	out32(t, bus, portVideoCtl, 1)
	if until := hwtest.CheckStable(t, bus, clock, portLine, hw.Width32, 8); until != clock.Now()+1 {
		t.Errorf("running line counter window ends at %d, want the next tick %d", until, clock.Now()+1)
	}
	checkTight(t, bus, clock, portIntFlags)
	if flags, _ := bus.In32(portIntFlags); flags&permedia.IntVRetrace == 0 {
		t.Fatalf("flags at the window's end = %#x, want vertical retrace", flags)
	}
	// Acknowledged, the next frame's retrace ends the window again, and
	// a VTotal shrunk below the line counter wraps on the next tick.
	out32(t, bus, portIntFlags, permedia.IntVRetrace)
	checkTight(t, bus, clock, portIntFlags)
	out32(t, bus, portIntFlags, permedia.IntVRetrace)
	clock.Tick(40)
	out32(t, bus, portVTotal, 8)
	if until := hwtest.CheckStable(t, bus, clock, portIntFlags, hw.Width32, 8); until != clock.Now()+1 {
		t.Errorf("shrunk frame window ends at %d, want the next tick %d", until, clock.Now()+1)
	}
}
