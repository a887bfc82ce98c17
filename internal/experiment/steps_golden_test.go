package experiment

import (
	"testing"

	"repro/internal/cdriver/ccompile"
	"repro/internal/devil/codegen"
	"repro/internal/drivers"
	"repro/internal/kernel"
)

// TestGoldenPristineSteps pins the watchdog step count of every embedded
// driver's pristine boot, on both execution backends.
//
// Step counts were re-based once, when basic-block charging landed: the
// watchdog charges one step per maximal run of straight-line statements
// (plus one per control-flow statement and per loop back edge), in the
// interpreter and the block backend alike. These constants pin that
// contract. If a change moves them, it changed the charging semantics —
// which moves every budget-edge mutant's outcome and the device timing
// of every boot — and must re-base deliberately: update the constants,
// note the re-base in the commit, and expect BENCH and table churn.
func TestGoldenPristineSteps(t *testing.T) {
	golden := map[string]int64{
		"busmaster_c":     158,
		"busmaster_devil": 162,
		"busmouse_c":      35,
		"busmouse_devil":  11,
		"ide_c":           13922,
		"ide_devil":       4205,
		"ne2000_c":        1900,
		"ne2000_devil":    536,
		"permedia_c":      1333,
		"permedia_devil":  1333,
	}
	for _, driver := range drivers.Names() {
		want, ok := golden[driver]
		if !ok {
			t.Errorf("%s: no golden step count — pin the new driver here", driver)
			continue
		}
		src, err := drivers.Load(driver)
		if err != nil {
			t.Fatal(err)
		}
		toks, err := ParseDriver(src.Text)
		if err != nil {
			t.Fatal(err)
		}
		for _, backend := range []Backend{BackendInterp, BackendBlock} {
			res, err := BootDriver(driver, BootInput{Tokens: toks, Devil: src.Devil, Backend: backend})
			if err != nil {
				t.Fatalf("%s/%s: %v", driver, backend, err)
			}
			if res.Outcome != kernel.OutcomeBoot {
				t.Fatalf("%s/%s: pristine boot outcome = %v (%v)", driver, backend, res.Outcome, res.RunErr)
			}
			if res.Steps != want {
				t.Errorf("%s/%s: pristine boot took %d steps, golden %d", driver, backend, res.Steps, want)
			}
		}
	}
}

// TestGoldenBlockStats pins what the block backend's compile of every
// embedded pristine driver produces: basic blocks, fused statements,
// batched and fallback port-I/O sites, loop superblocks and the
// statements inside them. A change to how ccompile lowers statements
// must compile the same shapes; if these move, so do the
// driverlab_exec_blocks_* and driverlab_exec_superblocks_* counters.
func TestGoldenBlockStats(t *testing.T) {
	golden := map[string]ccompile.BlockStats{
		"busmaster_c":     {Blocks: 12, FusedStmts: 25, BatchedIO: 14, FallbackIO: 0, Superblocks: 1, SuperStmts: 1},
		"busmaster_devil": {Blocks: 13, FusedStmts: 26, BatchedIO: 0, FallbackIO: 0, Superblocks: 1, SuperStmts: 1},
		"busmouse_c":      {Blocks: 5, FusedStmts: 19, BatchedIO: 8, FallbackIO: 0, Superblocks: 0, SuperStmts: 0},
		"busmouse_devil":  {Blocks: 4, FusedStmts: 14, BatchedIO: 0, FallbackIO: 0, Superblocks: 0, SuperStmts: 0},
		"ide_c":           {Blocks: 19, FusedStmts: 51, BatchedIO: 24, FallbackIO: 0, Superblocks: 8, SuperStmts: 13},
		"ide_devil":       {Blocks: 24, FusedStmts: 43, BatchedIO: 0, FallbackIO: 0, Superblocks: 5, SuperStmts: 7},
		"ne2000_c":        {Blocks: 21, FusedStmts: 78, BatchedIO: 55, FallbackIO: 0, Superblocks: 3, SuperStmts: 5},
		"ne2000_devil":    {Blocks: 18, FusedStmts: 74, BatchedIO: 0, FallbackIO: 0, Superblocks: 1, SuperStmts: 1},
		"permedia_c":      {Blocks: 25, FusedStmts: 39, BatchedIO: 16, FallbackIO: 0, Superblocks: 5, SuperStmts: 6},
		"permedia_devil":  {Blocks: 25, FusedStmts: 39, BatchedIO: 0, FallbackIO: 0, Superblocks: 5, SuperStmts: 6},
	}
	for _, driver := range drivers.Names() {
		want, ok := golden[driver]
		if !ok {
			t.Errorf("%s: no golden block stats — pin the new driver here", driver)
			continue
		}
		src, err := drivers.Load(driver)
		if err != nil {
			t.Fatal(err)
		}
		toks, err := ParseDriver(src.Text)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := Program(toks)
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewRig(driver)
		if err != nil {
			t.Fatal(err)
		}
		var stubs *codegen.Stubs
		if src.Devil {
			if stubs, err = r.Stubs(codegen.Debug); err != nil {
				t.Fatal(err)
			}
		}
		p, err := ccompile.Compile(prog, r.Kern, r.Bus, stubs, nil)
		if err != nil {
			t.Fatalf("%s: %v", driver, err)
		}
		if got := p.Stats(); got != want {
			t.Errorf("%s: block stats %#v, golden %#v", driver, got, want)
		}
	}
}
