// Package hwtest holds the device-model contract checks shared by the
// hw device packages' tests.
package hwtest

import (
	"testing"

	"repro/internal/hw"
)

// CheckStable checks one hw.Stable answer against the device it came
// from: it asks the bus for the window of a read of port at the
// clock's current tick, requires a stable answer, then advances the
// clock one tick at a time through [now, min(until, now+horizon)) and
// requires every read on the way to return the value read at now. It
// returns until for the caller's tightness checks.
func CheckStable(t testing.TB, bus *hw.Bus, clock *hw.Clock, port hw.Port,
	width hw.AccessWidth, horizon uint64) uint64 {
	t.Helper()
	now := clock.Now()
	until, ok := bus.StableUntil(port, width, now)
	if !ok {
		t.Fatalf("port %#x (%s) at tick %d: not stable", uint32(port), width, now)
	}
	if until <= now {
		t.Fatalf("port %#x (%s) at tick %d: empty window (until %d)", uint32(port), width, now, until)
	}
	want, err := bus.Read(port, width)
	if err != nil {
		t.Fatalf("port %#x: %v", uint32(port), err)
	}
	end := min(until, now+horizon)
	for clock.Now()+1 < end {
		clock.Tick(1)
		got, err := bus.Read(port, width)
		if err != nil {
			t.Fatalf("port %#x at tick %d: %v", uint32(port), clock.Now(), err)
		}
		if got != want {
			t.Fatalf("port %#x (%s) changed inside its window: %#x at tick %d, %#x at tick %d (until %d)",
				uint32(port), width, want, now, got, clock.Now(), until)
		}
	}
	return until
}

// CheckUnstable requires the bus to refuse a window for a read of port.
func CheckUnstable(t testing.TB, bus *hw.Bus, clock *hw.Clock, port hw.Port, width hw.AccessWidth) {
	t.Helper()
	if until, ok := bus.StableUntil(port, width, clock.Now()); ok {
		t.Fatalf("port %#x (%s): stable until %d, want a refusal",
			uint32(port), width, until)
	}
}
