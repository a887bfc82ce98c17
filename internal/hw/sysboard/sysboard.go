// Package sysboard models the fragile legacy PC system devices that share
// the ISA port space with expansion cards: the 8237 DMA controller, the
// 8259 interrupt controllers, the 8253 timer, the keyboard controller and
// the RTC/CMOS.
//
// The paper's "Crash" outcome — "the kernel crashes but no information is
// printed; at least a hardware reset is needed" — arises on real machines
// when a typo'd port constant lands an output instruction on one of these
// devices: reprogramming the PIC mask or the timer mid-boot wedges the
// machine. The model reproduces exactly that: reads float harmlessly,
// stray writes wedge the machine.
package sysboard

import (
	"fmt"

	"repro/internal/hw"
)

// WedgeError reports a machine-wedging write to a system device. It prints
// nothing on the console; the kernel classifies it as a crash.
type WedgeError struct {
	Device string
	Port   hw.Port
}

// Error implements the error interface.
func (e *WedgeError) Error() string {
	return fmt.Sprintf("machine wedged: stray write to %s (port %#x)", e.Device, uint32(e.Port))
}

// Region is one fragile port range.
type Region struct {
	Name string
	Base hw.Port
	Size hw.Port
}

// Regions returns the standard PC system-device port map.
func Regions() []Region {
	return []Region{
		{Name: "DMA controller 1 (8237)", Base: 0x00, Size: 0x10},
		{Name: "interrupt controller 1 (8259)", Base: 0x20, Size: 0x02},
		{Name: "timer (8253)", Base: 0x40, Size: 0x04},
		{Name: "keyboard controller (8042)", Base: 0x60, Size: 0x05},
		{Name: "RTC/CMOS", Base: 0x70, Size: 0x02},
		{Name: "DMA page registers", Base: 0x80, Size: 0x10},
		{Name: "interrupt controller 2 (8259)", Base: 0xa0, Size: 0x02},
		{Name: "DMA controller 2 (8237)", Base: 0xc0, Size: 0x20},
	}
}

// Device is one fragile system device.
type Device struct {
	region Region
}

var (
	_ hw.Device = (*Device)(nil)
	_ hw.Stable = (*Device)(nil)
)

// Name implements hw.Device.
func (d *Device) Name() string { return d.region.Name }

// Read implements hw.Device: system devices tolerate stray reads — the
// data lines float.
func (d *Device) Read(offset hw.Port, width hw.AccessWidth) (uint32, error) {
	switch width {
	case hw.Width8:
		return 0xff, nil
	case hw.Width16:
		return 0xffff, nil
	default:
		return 0xffffffff, nil
	}
}

// StableUntil implements hw.Stable: the floating lines never change.
func (d *Device) StableUntil(offset hw.Port, width hw.AccessWidth, now uint64) (uint64, bool) {
	return hw.Forever, true
}

// Write implements hw.Device: a stray write reprograms a device the boot
// depends on and wedges the machine.
func (d *Device) Write(offset hw.Port, width hw.AccessWidth, value uint32) error {
	return &WedgeError{Device: d.region.Name, Port: d.region.Base + offset}
}

// MapAll claims every fragile region on the bus.
func MapAll(bus *hw.Bus) error {
	for _, r := range Regions() {
		if err := bus.Map(r.Base, r.Size, &Device{region: r}); err != nil {
			return fmt.Errorf("sysboard: %w", err)
		}
	}
	return nil
}
