// Command perfbench is the repository's benchmark. It drives the paper's
// two experiments and the campaign store through the public Go API of
// campaign, experiment, mutation, devil, hw and kernel, checks every
// output against a reference, and prints one JSON result line.
//
//	go run . --workload paper --seed 2001 --seconds 10 --trace 0
//
// Workloads: paper, spec, faults, report (see README.md). --trace 0
// reports the end-to-end metrics; --trace 1 makes a separate traced run
// that reports the per-layer metrics. --gen-reference DIR regenerates
// the checked-in references with the reference interpreter.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/experiment"
	"repro/internal/obs"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"cpu_s", "s"},
	{"allocs_per_op", "count"},
	{"peak_rss_mb", "MB"},
}

// rowNames are the metric-name forms of the outcome rows.
var rowNames = map[string]string{
	experiment.RowCompile: "compile_check",
	experiment.RowRuntime: "runtime_check",
	experiment.RowCrash:   "crash",
	experiment.RowLoop:    "infinite_loop",
	experiment.RowHalt:    "halt",
	experiment.RowDamaged: "damaged_boot",
	experiment.RowBoot:    "boot",
	experiment.RowDead:    "dead_code",
}

// perLayer lists the metrics of a traced run, on every workload; a
// layer the workload does not exercise reads 0.
func perLayer() []metricDef {
	defs := []metricDef{
		{"campaign.expand_s", "s"},
		{"campaign.worker_busy_frac", "fraction"},
		{"campaign.store.append_us.p50", "us"},
		{"campaign.store.append_us.p99", "us"},
		{"campaign.store.flushes", "count"},
		{"campaign.store.flush_ms.p50", "ms"},
		{"campaign.store.flush_ms.p99", "ms"},
		{"campaign.store.open_s", "s"},
		{"campaign.aggregate_s", "s"},
		{"campaign.resume_s", "s"},
		{"campaign.resume_scan_s", "s"},
		{"experiment.boot_us.p50", "us"},
		{"experiment.boot_us.p99", "us"},
	}
	for _, r := range experiment.RowOrder {
		defs = append(defs, metricDef{"experiment.row_s." + rowNames[r], "s"})
	}
	for _, r := range experiment.RowOrder {
		defs = append(defs, metricDef{"experiment.row_steps_frac." + rowNames[r], "fraction"})
	}
	defs = append(defs, metricDef{"experiment.render_s", "s"})
	for _, p := range experiment.BootPhases {
		defs = append(defs, metricDef{"experiment.phase_us." + p, "us"})
	}
	defs = append(defs,
		metricDef{"experiment.frontend_full_fallbacks", "count"},
		metricDef{"experiment.interp_fallbacks", "count"},
		metricDef{"experiment.snapshot_hit_frac", "fraction"},
		metricDef{"ccompile.superblocks_compiled", "count"},
	)
	for _, l := range cpuLayers {
		defs = append(defs, metricDef{"cpu_share." + l, "fraction"})
	}
	return append(defs,
		metricDef{"hw.bus_accesses_per_boot", "count"},
		metricDef{"hw.injected_faults_per_boot", "count"},
		metricDef{"kernel.steps_per_boot", "count"},
		metricDef{"devilmut.enumerate_s", "s"},
		metricDef{"devilmut.render_us", "us"},
		metricDef{"devil.parse_us", "us"},
		metricDef{"devil.check_us", "us"},
		metricDef{"go.gc_cpu_frac", "fraction"},
		metricDef{"trace.overhead_frac", "fraction"},
	)
}

// bench is one workload.
type bench interface {
	// setup prepares the inputs; it runs several times and is timed as
	// setup_s. The last call's inputs feed the timed iterations.
	setup(tr *layerTrace) error
	// prepareTrace readies the instrumented path before traced
	// iterations, outside their timing.
	prepareTrace(tr *layerTrace) error
	// iterate runs one timed iteration and checks its outputs; with a
	// non-nil tr it runs instrumented and records per-layer data.
	iterate(tr *layerTrace) (iterStats, error)
	// finishTrace adds the workload's own per-layer measurements after
	// the traced iterations.
	finishTrace(tr *layerTrace) error
	// cycle is how many iterations make up one pass over the workload's
	// inputs; a run measures whole cycles.
	cycle() int
}

// iterStats is one iteration's outcome.
type iterStats struct {
	ops    int             // operations attempted
	failed int             // operations whose output was wrong
	lat    []time.Duration // user-visible operation latencies
}

// layerTrace gathers a traced run's per-layer observations.
type layerTrace struct {
	col     *obs.Collector
	metrics *campaign.Metrics

	boots       []bootSpan
	busyFrac    []float64
	appends     []time.Duration
	flushes     []int
	flushDurs   []time.Duration
	expands     []time.Duration
	enumerates  []time.Duration
	opens       []time.Duration
	aggregates  []time.Duration
	renders     []time.Duration
	resumes     []time.Duration
	resumeScans []time.Duration
	probes      int
	probeFailed int
	values      map[string]float64
}

// workloads maps each workload name to its constructor.
var workloads = map[string]func(seed uint64, tmp string, workers int) (bench, error){
	"paper": func(seed uint64, tmp string, workers int) (bench, error) {
		return newBootBench(25, nil, 2, seed, tmp, workers)
	},
	"faults": func(seed uint64, tmp string, workers int) (bench, error) {
		return newBootBench(10, []string{"flaky-bus", "timing"}, 3, seed, tmp, workers)
	},
	"spec": func(seed uint64, _ string, workers int) (bench, error) {
		return newSpecBench(seed, workers)
	},
	"report": func(seed uint64, tmp string, workers int) (bench, error) {
		return newReportBench(seed, tmp, workers), nil
	},
}

// setupReps is how many times set-up runs; setup_s is the median.
const setupReps = 15

func main() {
	name := flag.String("workload", "paper", "workload: paper, spec, faults or report")
	seed := flag.Uint64("seed", 2001, "workload seed")
	secs := flag.Int("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 makes the traced run that reports per-layer metrics")
	tmpRoot := flag.String("tmp", os.TempDir(), "directory for the run's scratch stores")
	gen := flag.String("gen-reference", "", "regenerate the references into this directory and exit")
	refWorkers := flag.Int("ref-kernel", 0, "run the reference kernel on this many goroutines, print its time and exit")
	flag.Parse()

	if *refWorkers > 0 {
		runRefKernel(*refWorkers)
		return
	}
	if *gen != "" {
		if err := generateReferences(*gen); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	mk, ok := workloads[*name]
	if !ok || *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: usage: --workload paper|spec|faults|report --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if err := os.MkdirAll(*tmpRoot, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	tmp, err := os.MkdirTemp(*tmpRoot, "perfbench-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, meta, err := run(*name, mk, *seed, time.Duration(*secs)*time.Second, *trace == 1, tmp)
	os.RemoveAll(tmp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, _ := json.Marshal(map[string]any{"meta": meta})
	fmt.Println(string(out))
	out, _ = json.Marshal(res)
	fmt.Println(string(out))
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run sets the workload up, measures it and returns the result and the
// run's metadata.
func run(name string, mk func(uint64, string, int) (bench, error), seed uint64,
	budget time.Duration, traced bool, tmp string) (*result, map[string]any, error) {
	workers := runtime.NumCPU()
	b, err := mk(seed, tmp, workers)
	if err != nil {
		return nil, nil, err
	}
	var tr *layerTrace
	if traced {
		col := obs.New()
		tr = &layerTrace{col: col, metrics: campaign.NewMetrics(col), values: make(map[string]float64)}
	}

	var setups []float64
	speed0, err := hostSpeed(workers)
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < setupReps; i++ {
		runtime.GC() // each set-up starts from the same heap
		t0 := time.Now()
		if err := b.setup(tr); err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	speed1, err := hostSpeed(workers)
	if err != nil {
		return nil, nil, err
	}
	setupSpeed := (speed0 + speed1) / 2

	res := &result{Metrics: make(map[string]metricValue)}
	if !traced {
		m, err := measure(b, nil, budget)
		if err != nil {
			return nil, nil, err
		}
		res.Attempted, res.Failed = m.ops, m.failed
		lats, latsScaled := seconds(m.lat), seconds(m.latScaled)
		// p99 has hundreds of boots beyond it on paper and faults. On spec
		// one CheckMutant in a hundred meets a collector assist or a host
		// stall, and p99 moved by 25% between runs. Report has about ten
		// reports per run, so its p90 is close to the slowest one and
		// moved by 22% between runs.
		tailPct := 99.0
		switch name {
		case "spec":
			tailPct = 90
		case "report":
			tailPct = 75
		}
		raw := map[string]float64{
			"setup_s":    median(setups),
			"ops_per_s":  float64(m.ops) / sum(m.walls),
			"op_p50_ms":  1e3 * median(lats),
			"op_tail_ms": 1e3 * percentile(lats, tailPct),
			"cpu_s":      sum(m.cpu) / float64(m.iters),
		}
		vals := map[string]float64{
			"setup_s":       median(setups) * setupSpeed,
			"ops_per_s":     float64(m.ops) / dot(m.walls, m.speed),
			"op_p50_ms":     1e3 * median(latsScaled),
			"op_tail_ms":    1e3 * percentile(latsScaled, tailPct),
			"cpu_s":         dot(m.cpu, m.speed) / float64(m.iters),
			"allocs_per_op": ratio(m.allocs, float64(m.ops)),
			"peak_rss_mb":   peakRSSMB(),
		}
		for _, d := range endToEnd {
			res.Metrics[d.name] = metricValue{vals[d.name], d.unit}
		}
		meta := runMeta(name, seed, m)
		meta["tail_percentile"] = tailPct
		meta["latency_samples"] = len(m.lat)
		meta["raw_metrics"] = raw
		meta["setup_host_speed"] = setupSpeed
		return finish(res), meta, nil
	}

	// Traced run: untraced iterations for the first half of the budget,
	// then instrumented ones under the CPU profiler for the second.
	plain, err := measure(b, nil, budget/2)
	if err != nil {
		return nil, nil, err
	}
	if err := b.prepareTrace(tr); err != nil {
		return nil, nil, err
	}
	profPath := filepath.Join(tmp, "cpu.pprof")
	prof, err := os.Create(profPath)
	if err != nil {
		return nil, nil, err
	}
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return nil, nil, err
	}
	gc0, cpu0 := gcCPU()
	m, err := measure(b, tr, budget/2)
	gc1, cpu1 := gcCPU()
	pprof.StopCPUProfile()
	if cerr := prof.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, nil, err
	}
	if err := b.finishTrace(tr); err != nil {
		return nil, nil, err
	}
	res.Attempted = plain.ops + m.ops + tr.probes
	res.Failed = plain.failed + m.failed + tr.probeFailed
	shares, sampled, err := cpuShares(profPath)
	if err != nil {
		return nil, nil, err
	}
	for l, v := range shares {
		tr.values["cpu_share."+l] = v
	}
	tr.values["go.gc_cpu_frac"] = ratio(gc1-gc0, cpu1-cpu0)
	tr.values["trace.overhead_frac"] = ratio(median(m.walls), median(plain.walls)) - 1
	layerValues(tr, m.iters)
	for _, d := range perLayer() {
		res.Metrics[d.name] = metricValue{tr.values[d.name], d.unit}
	}
	meta := runMeta(name, seed, m)
	meta["untraced_iterations"] = plain.iters
	meta["profile_cpu_s"] = sampled.Seconds()
	meta["probe_boots"] = tr.probes
	res = finish(res)
	// The named layers must cover at least 90% of the profile, or the
	// per-layer split misses a layer the workload spends time in.
	if shares["other"] > 0.1 {
		fmt.Fprintf(os.Stderr, "perfbench: %.1f%% of CPU samples fall outside the named layers\n", 100*shares["other"])
		res.Correct = false
	}
	return res, meta, nil
}

// finish derives the correctness flag.
func finish(r *result) *result {
	r.Correct = r.Failed == 0 && r.Attempted > 0
	return r
}

// measurement aggregates the iterations of one measuring phase.
type measurement struct {
	iters, ops, failed int
	lat                []time.Duration
	opsPerS, cpu       []float64 // per iteration
	walls              []float64 // per iteration, seconds
	allocs             float64   // heap objects the iterations allocated
	speed              []float64 // per iteration, host speed before it
	latScaled          []time.Duration
}

// measure runs whole cycles of iterations, at least one, and stops at
// the cycle boundary nearest to budget. Every cycle runs the same
// inputs, so a faster program measures more of the same work, not other
// work.
func measure(b bench, tr *layerTrace, budget time.Duration) (*measurement, error) {
	m := &measurement{}
	start := time.Now()
	for {
		c0 := time.Now()
		for i := 0; i < b.cycle(); i++ {
			if err := m.iterate(b, tr); err != nil {
				return nil, err
			}
		}
		if time.Since(start)+time.Since(c0)/2 >= budget {
			return m, nil
		}
	}
}

// iterate runs and records one iteration. The iteration starts from a
// collected heap, as a run of a fresh driverlab process would, so no
// garbage the previous iteration left is collected on its time.
func (m *measurement) iterate(b bench, tr *layerTrace) error {
	runtime.GC()
	speed := 1.0
	if tr == nil { // the traced iterations' times are not reported
		var err error
		if speed, err = hostSpeed(runtime.NumCPU()); err != nil {
			return err
		}
	}
	a0, c0 := heapAllocs(), cpuTime()
	t0 := time.Now()
	st, err := b.iterate(tr)
	wall := time.Since(t0).Seconds()
	m.allocs += heapAllocs() - a0
	if err != nil {
		return err
	}
	m.iters++
	m.ops += st.ops
	m.failed += st.failed
	m.lat = append(m.lat, st.lat...)
	for _, d := range st.lat {
		m.latScaled = append(m.latScaled, time.Duration(float64(d)*speed))
	}
	m.speed = append(m.speed, speed)
	m.walls = append(m.walls, wall)
	m.opsPerS = append(m.opsPerS, float64(st.ops)/wall)
	m.cpu = append(m.cpu, cpuTime()-c0)
	return nil
}

// layerValues reduces the traced observations to per-layer metrics.
// Counts and times that accumulate over an iteration are per traced
// iteration.
func layerValues(tr *layerTrace, iters int) {
	v := tr.values
	per := float64(iters)
	us := func(ds []time.Duration, p float64) float64 { return 1e6 * percentile(seconds(ds), p) }
	v["campaign.expand_s"] = median(seconds(tr.expands))
	v["campaign.worker_busy_frac"] = median(tr.busyFrac)
	v["campaign.store.append_us.p50"] = us(tr.appends, 50)
	v["campaign.store.append_us.p99"] = us(tr.appends, 99)
	var flushes float64
	for _, n := range tr.flushes {
		flushes += float64(n)
	}
	v["campaign.store.flushes"] = ratio(flushes, float64(len(tr.flushes)))
	v["campaign.store.flush_ms.p50"] = us(tr.flushDurs, 50) / 1e3
	v["campaign.store.flush_ms.p99"] = us(tr.flushDurs, 99) / 1e3
	v["campaign.store.open_s"] = median(seconds(tr.opens))
	v["campaign.aggregate_s"] = median(seconds(tr.aggregates))
	v["campaign.resume_s"] = median(seconds(tr.resumes))
	v["campaign.resume_scan_s"] = median(seconds(tr.resumeScans))
	v["experiment.render_s"] = median(seconds(tr.renders))
	v["devilmut.enumerate_s"] = median(seconds(tr.enumerates))

	bootDurs := make([]time.Duration, len(tr.boots))
	rowDur := make(map[string]time.Duration)
	rowSteps := make(map[string]int64)
	var steps int64
	for i, s := range tr.boots {
		bootDurs[i] = s.d
		rowDur[s.row] += s.d
		rowSteps[s.row] += s.steps
		steps += s.steps
	}
	v["experiment.boot_us.p50"] = us(bootDurs, 50)
	v["experiment.boot_us.p99"] = us(bootDurs, 99)
	for row, n := range rowNames {
		v["experiment.row_s."+n] = rowDur[row].Seconds() / per
		v["experiment.row_steps_frac."+n] = ratio(float64(rowSteps[row]), float64(steps))
	}

	// Counters and phase spans the program records itself.
	counts := make(map[string]float64)
	phase := make(map[string]float64)
	for _, s := range tr.col.Gather() {
		if s.Name == experiment.MetricBootPhase {
			phase[s.Label("phase")] += s.Sum
			continue
		}
		counts[s.Name] += s.Value
	}
	boots := counts[campaign.MetricBoots]
	for _, p := range experiment.BootPhases {
		v["experiment.phase_us."+p] = 1e6 * ratio(phase[p], boots)
	}
	v["experiment.frontend_full_fallbacks"] = counts[experiment.MetricFullFrontend] / per
	v["experiment.interp_fallbacks"] = counts[experiment.MetricInterpFallbacks] / per
	hits, falls := counts[experiment.MetricSnapshotHits], counts[experiment.MetricSnapshotFallbacks]
	v["experiment.snapshot_hit_frac"] = ratio(hits, hits+falls)
	v["ccompile.superblocks_compiled"] = counts[experiment.MetricSuperblocksCompiled] / per
}

// runMeta describes the run: machine, toolchain, source and workload
// size, so the noise of each run can be read next to its figures.
func runMeta(name string, seed uint64, m *measurement) map[string]any {
	return map[string]any{
		"workload":             name,
		"seed":                 seed,
		"cpu_model":            cpuModel(),
		"nproc":                runtime.NumCPU(),
		"gomaxprocs":           runtime.GOMAXPROCS(0),
		"go_version":           runtime.Version(),
		"commit":               commit(),
		"iterations":           m.iters,
		"ops_per_iteration":    m.ops / max(1, m.iters),
		"failed_frac":          ratio(float64(m.failed), float64(m.ops)),
		"iteration_walls_s":    m.walls,
		"iteration_ops_per_s":  m.opsPerS,
		"iteration_host_speed": m.speed,
	}
}

// cpuModel reads the processor model name from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the source revision the binary was built from, when the
// build could see version control.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+modified"
	}
	return rev
}

// cpuTime is the process's user plus system CPU time in seconds.
func cpuTime() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// heapAllocs is the cumulative count of heap objects allocated.
func heapAllocs() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// gcCPU returns the runtime's estimates of cumulative GC CPU time and
// total CPU time, in seconds.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}
