package hw_test

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/hw/hwtest"
)

// quietRAM is a ram that answers the Stable query: its cells only
// change when written.
type quietRAM struct{ ram }

func (q *quietRAM) StableUntil(off hw.Port, w hw.AccessWidth, now uint64) (uint64, bool) {
	return hw.Forever, true
}

// TestBusStableUntil pins when the bus answers a window itself, passes
// the query to the device, or refuses it.
func TestBusStableUntil(t *testing.T) {
	bus := hw.NewBus()
	clock := &hw.Clock{}
	if err := bus.Map(0x00, 16, &ram{name: "plain"}); err != nil {
		t.Fatal(err)
	}
	if err := bus.Map(0x10, 16, &quietRAM{ram{name: "quiet"}}); err != nil {
		t.Fatal(err)
	}
	hwtest.CheckUnstable(t, bus, clock, 0x03, hw.Width8)  // no Stable side
	hwtest.CheckUnstable(t, bus, clock, 0x999, hw.Width8) // strict bus: faults
	hwtest.CheckStable(t, bus, clock, 0x13, hw.Width8, 8)

	bus.SetFloating(true)
	if until := hwtest.CheckStable(t, bus, clock, 0x999, hw.Width16, 8); until != hw.Forever {
		t.Errorf("floating read window ends at %d, want forever", until)
	}

	// Skipped reads must stay visible: no window while tracing records
	// every access or an injector decides per access.
	bus.SetTracing(true)
	hwtest.CheckUnstable(t, bus, clock, 0x13, hw.Width8)
	hwtest.CheckUnstable(t, bus, clock, 0x999, hw.Width8)
	bus.SetTracing(false)
	bus.SetInjector(hw.NewInjector(hw.InjectorConfig{}, clock))
	hwtest.CheckUnstable(t, bus, clock, 0x13, hw.Width8)
	bus.SetInjector(nil)
	hwtest.CheckStable(t, bus, clock, 0x13, hw.Width8, 8)
}

func TestBusCountReads(t *testing.T) {
	bus := hw.NewBus()
	bus.SetFloating(true)
	_, _ = bus.In8(0x999)
	bus.CountReads(41)
	if acc, faults := bus.Stats(); acc != 42 || faults != 0 || bus.Accesses() != 42 {
		t.Errorf("stats = %d/%d (Accesses %d), want 42/0", acc, faults, bus.Accesses())
	}
}
