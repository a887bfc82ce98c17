package main

import (
	"encoding/json"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/experiment"
	"repro/internal/specs"
)

func TestSeedExpansion(t *testing.T) {
	expand := func(seed uint64) []campaign.Task {
		b, err := newBootBench(25, nil, 2, seed, t.TempDir(), 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.setup(nil); err != nil {
			t.Fatal(err)
		}
		return b.tasks
	}
	a, again, other := expand(2001), expand(2001), expand(2002)
	if len(a) == 0 || !slices.Equal(a, again) {
		t.Fatalf("seed 2001 expanded to different task lists (%d and %d tasks)", len(a), len(again))
	}
	if slices.Equal(a, other) {
		t.Fatal("seeds 2001 and 2002 expanded to the same task list")
	}
}

// TestBootCycle checks that iterations cycle over a fixed set of
// samples, so the work a run measures does not depend on how many
// iterations fit in it.
func TestBootCycle(t *testing.T) {
	b, err := newBootBench(10, nil, 3, 2001, t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	seeds := make(map[uint64]bool)
	for n := 0; n < 3; n++ {
		s := b.iterSpec(n).Seed
		if s != b.iterSpec(n+3).Seed || s != b.iterSpec(n+6).Seed {
			t.Fatalf("iteration %d and the same iteration of a later cycle sample with different seeds", n)
		}
		seeds[s] = true
	}
	if len(seeds) != 3 || b.iterSpec(0).Seed != 2001 {
		t.Fatalf("one cycle samples with seeds %v, want 3 distinct seeds starting at 2001", seeds)
	}
}

func TestReportStoreRoundTrip(t *testing.T) {
	b := newReportBench(7, t.TempDir(), 2)
	if err := b.setup(nil); err != nil {
		t.Fatal(err)
	}
	fs, err := campaign.OpenFile(b.path)
	if err != nil {
		t.Fatal(err)
	}
	recs := fs.Records()
	fs.Close()
	tables, _, err := campaign.Aggregate(recs)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != len(b.want) || b.results != 3*38203 {
		t.Fatalf("%d cells and %d results, want %d cells and %d results", len(tables), b.results, len(b.want), 3*38203)
	}
	for label, want := range b.want {
		got := tables[label]
		if got == nil || !maps.Equal(got.Counts, want.Counts) || got.Results != want.Results ||
			got.Losses != want.Losses || got.Selected != want.Selected || got.TotalSites != want.TotalSites {
			t.Fatalf("cell %s: aggregate %+v, synthesised %+v", label, got, want)
		}
	}
	st, err := b.iterate(nil)
	if err != nil || st.failed != 0 || st.ops != 2*b.results {
		t.Fatalf("report iteration: err=%v failed=%d ops=%d", err, st.failed, st.ops)
	}
}

// TestCorruptReferenceCaught boots a small campaign against the
// interpreter-made reference, then alters one reference entry of a
// booted mutant and expects exactly that boot to fail.
func TestCorruptReferenceCaught(t *testing.T) {
	b, err := newBootBench(5, []string{"pristine", "flaky-bus"}, 1, 2001, t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	b.spec.Drivers = []string{"busmouse_c", "ide_c"}
	if err := b.setup(nil); err != nil {
		t.Fatal(err)
	}
	st, err := b.iterate(nil)
	if err != nil || st.failed != 0 || st.ops != len(b.tasks) {
		t.Fatalf("clean run: err=%v failed=%d of %d", err, st.failed, st.ops)
	}
	task := b.tasks[len(b.tasks)/2]
	cell := b.refs[campaign.CellLabel(task.Driver, task.Scenario)]
	cell[task.Mutant].Steps++ // a one-sample cycle boots the same sample again
	st, err = b.iterate(nil)
	if err != nil || st.failed != 1 {
		t.Fatalf("corrupted reference entry: err=%v failed=%d, want 1", err, st.failed)
	}
}

func TestSpecReferenceReproducesTable2(t *testing.T) {
	refs, err := loadSpecVerdicts()
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range specs.All() {
		total += len(refs[s.Name])
	}
	if total != 22054 {
		t.Fatalf("%d spec mutants in the reference, want 22054", total)
	}
	detected := 0
	for _, v := range refs["busmouse"] {
		if v {
			detected++
		}
	}
	pct := 100 * float64(detected) / float64(len(refs["busmouse"]))
	if math.Round(pct*10)/10 != 94.3 {
		t.Fatalf("busmouse detection %.2f%%, want 94.3%%", pct)
	}
}

func TestBootReferenceCoversEveryMutant(t *testing.T) {
	refs, err := loadBootRefs()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, cell := range refs {
		n += len(cell)
	}
	if len(refs) != 30 || n != 3*38203 {
		t.Fatalf("reference has %d cells and %d records, want 30 and %d", len(refs), n, 3*38203)
	}
}

func TestCPUShareAttribution(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"repro/internal/cdriver/ccompile.(*compiler).expr.func3"}, "ccompile"},
		{[]string{"repro/internal/cdriver/ccov.(*Set).Add"}, "ccov"},
		{[]string{"repro/internal/hw.(*Bus).Read"}, "hw"},
		{[]string{"repro/internal/hw/ide.(*Controller).Read"}, "hw_devices"},
		{[]string{"repro/internal/kernel.(*Kernel).Step"}, "kernel"},
		{[]string{"repro/internal/devil/codegen.(*Stubs).get"}, "codegen"},
		{[]string{"repro/internal/cdriver/cparser.(*parser).expr"}, "frontend"},
		{[]string{"repro/internal/cdriver/cincr.(*Source).Respan"}, "frontend"},
		{[]string{"repro/internal/devil/parser.Parse"}, "devil"},
		{[]string{"repro/internal/mutation/devilmut.CheckMutant"}, "devil"},
		{[]string{"repro/internal/campaign.Aggregate"}, "campaign"},
		{[]string{"repro/internal/experiment.(*Rig).Boot"}, "experiment"},
		{[]string{"runtime.mallocgc", "repro/internal/cdriver/ccompile.compile"}, "runtime"},
		{[]string{"encoding/json.(*decodeState).object", "encoding/json.Unmarshal", "repro/internal/campaign.OpenFile"}, "campaign"},
		{[]string{"strconv.formatBits", "fmt.Sprintf", "repro/internal/experiment.FormatDriverTable"}, "experiment"},
		{[]string{"repro/internal/obs.(*Histogram).Observe"}, "other"},
		{[]string{"sort.Float64s", "main.median"}, "other"},
		{[]string{"repro/internal/kernel.F[go.shape.int]"}, "kernel"},
	}
	for _, c := range cases {
		if got := stackLayer(c.stack); got != c.want {
			t.Errorf("stackLayer(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

func TestCPUSharesReadsAProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Skip("CPU profiler unavailable:", err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		experiment.FormatDriverTable(&experiment.DriverTable{Driver: "x", Counts: map[string]int{"Boot": 3}}, "t")
	}
	pprof.StopCPUProfile()
	f.Close()
	shares, sampled, err := cpuShares(path)
	if err != nil {
		t.Fatal(err)
	}
	if sampled == 0 {
		t.Skip("no CPU samples taken")
	}
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 || shares["experiment"]+shares["runtime"] < 0.5 {
		t.Fatalf("shares %v over %v of samples", shares, sampled)
	}
}

func TestTraceShares(t *testing.T) {
	listing := `File: perfbench
Type: cpu
Duration: 1s, Total samples = 60ms (6.00%)
-----------+-------------------------------------------------------
      30ms   repro/internal/hw.(*Bus).Read (inline)
             repro/internal/cdriver/ccompile.(*compiler).expr.func3
             runtime.goexit
-----------+-------------------------------------------------------
      20ms   runtime.mallocgc
             repro/internal/kernel.(*Kernel).Step
-----------+-------------------------------------------------------
      10ms   strconv.formatBits
             strconv.Itoa (inline)
             repro/internal/campaign.(*FileStore).Append
-----------+-------------------------------------------------------
`
	shares, sampled, err := traceShares(listing)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"hw": 0.5, "runtime": 1.0 / 3, "campaign": 1.0 / 6}
	for _, l := range cpuLayers {
		if math.Abs(shares[l]-want[l]) > 1e-9 {
			t.Errorf("share of %s = %v, want %v", l, shares[l], want[l])
		}
	}
	if sampled != 60*time.Millisecond {
		t.Errorf("sampled %v, want 60ms", sampled)
	}
	if _, _, err := traceShares("-----------+---\n  bogus   main.f\n"); err == nil {
		t.Error("a trace line without a sampled time was accepted")
	}
}

// TestRefTableIsOneCycle checks that the reference kernel's walk
// visits every entry before it returns to its start, so no walk is
// trapped in a short, cache-resident loop.
func TestRefTableIsOneCycle(t *testing.T) {
	for _, n := range []int{2, 3, 1000, 1 << 16} {
		next := refTable(n)
		p, steps := next[0], 1
		for ; p != 0 && steps <= n; steps++ {
			p = next[p]
		}
		if steps != n {
			t.Errorf("table of %d: the walk from entry 0 returns after %d steps", n, steps)
		}
	}
	if d := refPass(refTable(1<<16), 2); d <= 0 {
		t.Errorf("reference pass took %v", d)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json's metric lists in step with
// what the benchmark prints.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark prints %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer())
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s is not defined", w.Name)
		}
	}
}
