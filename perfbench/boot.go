package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/campaign"
	"repro/internal/cdriver/cincr"
	"repro/internal/drivers"
	"repro/internal/experiment"
	"repro/internal/mutation"
	"repro/internal/mutation/cmut"
)

// bootBench is the paper and faults workloads: one driver-mutation
// campaign per iteration, from spec to rendered tables.
type bootBench struct {
	spec    campaign.Spec
	refs    bootRefs
	tmp     string
	workers int
	seed    uint64
	samples int // the distinct samples one cycle runs

	wl    *timedWorkload  // the untraced workload, from the last setup
	obsWl *timedWorkload  // the instrumented workload of traced iterations
	tasks []campaign.Task // the work-list of the current iteration
	// recs are the result records of the last traced iteration, which
	// the probe boots compare their step counts with.
	recs map[string]campaign.Record
	iter int
}

// newBootBench builds the paper workload (scenarios nil: pristine, 25%)
// or the faults workload (flaky-bus and timing cells, 10%), which cycles
// over samples distinct samples.
func newBootBench(samplePct int, scenarios []string, samples int, seed uint64, tmp string, workers int) (*bootBench, error) {
	refs, err := loadBootRefs()
	if err != nil {
		return nil, err
	}
	return &bootBench{
		spec: campaign.Spec{
			Name:      "perfbench",
			Drivers:   drivers.Names(),
			SamplePct: samplePct,
			Seed:      seed,
			Scenarios: scenarios,
		},
		refs: refs, tmp: tmp, workers: workers, seed: seed, samples: samples,
	}, nil
}

func (b *bootBench) cycle() int { return b.samples }

// iterSpec is the campaign of iteration n. It samples with seed number
// n mod samples derived from the workload seed, so every cycle boots
// the same samples. Boots differ in length by three orders of
// magnitude, so one sample's mix of long boots moves boots/s by several
// percent (most on faults, the smallest sample); a cycle over several
// samples keeps that out of the run-to-run spread.
func (b *bootBench) iterSpec(n int) campaign.Spec {
	spec := b.spec
	spec.Seed = b.seed + uint64(n%b.samples)*0x9e3779b97f4a7c15
	return spec
}

// setup builds a fresh workload and expands the campaign's work-list:
// every driver's mutant enumeration, span analysis and sample.
func (b *bootBench) setup(tr *layerTrace) error {
	wl := &timedWorkload{Workload: experiment.NewWorkload()}
	_, tasks, err := campaign.ExpandPlan(b.spec, wl)
	if err != nil {
		return err
	}
	if tr != nil {
		tr.expands = append(tr.expands, wl.expands...)
	}
	wl.expands = nil
	b.wl, b.tasks, b.iter = wl, tasks, 0
	return nil
}

// prepareTrace builds the instrumented workload and warms its
// enumeration, so traced iterations differ from untraced ones only by
// the tracing.
func (b *bootBench) prepareTrace(tr *layerTrace) error {
	b.obsWl = &timedWorkload{Workload: experiment.NewObservedWorkload(tr.col)}
	_, _, err := campaign.ExpandPlan(b.spec, b.obsWl)
	b.obsWl.expands = nil
	b.iter = 0 // traced iterations boot the samples the untraced ones did
	return err
}

// iterate runs the campaign into a fresh JSONL store, then reopens the
// store, aggregates it and renders every cell's table. Each boot is one
// operation; a boot fails when its record is missing or disagrees with
// the reference.
func (b *bootBench) iterate(tr *layerTrace) (iterStats, error) {
	spec := b.iterSpec(b.iter)
	b.iter++
	wl := b.wl
	if tr != nil {
		wl = b.obsWl
	}
	_, tasks, err := campaign.ExpandPlan(spec, wl)
	if err != nil {
		return iterStats{}, err
	}
	wl.expands = nil
	b.tasks = tasks
	path := filepath.Join(b.tmp, fmt.Sprintf("campaign-%d.jsonl", b.iter))
	defer os.Remove(path)
	fs, err := campaign.OpenFile(path)
	if err != nil {
		return iterStats{}, err
	}
	var store campaign.Store = fs
	var ts *timedStore
	opts := campaign.Options{Workers: b.workers}
	if tr != nil {
		ts = newTimedStore(fs)
		store = ts
		opts.Metrics = tr.metrics
	}

	t0 := time.Now()
	_, runErr := campaign.Run(spec, wl, store, opts)
	runWall := time.Since(t0)
	closeErr := fs.Close()

	t1 := time.Now()
	var recs []campaign.Record
	var text string
	fs, err = campaign.OpenFile(path)
	if err == nil {
		recs = fs.Records()
		err = fs.Close()
	}
	t2 := time.Now()
	var tables map[string]*campaign.TableData
	var order []string
	if err == nil {
		tables, order, err = campaign.Aggregate(recs)
	}
	t3 := time.Now()
	if err == nil {
		text = renderTables(tables, order)
	}
	t4 := time.Now()

	spans := wl.take()
	st := iterStats{ops: len(b.tasks), lat: make([]time.Duration, len(spans))}
	for i, s := range spans {
		st.lat[i] = s.d
	}
	for _, e := range []error{runErr, closeErr, err} {
		if e != nil {
			fmt.Fprintf(os.Stderr, "perfbench: campaign iteration: %v\n", e)
			st.failed = st.ops
			return st, nil
		}
	}
	byKey := make(map[string]campaign.Record, len(recs))
	for _, r := range recs {
		if r.Kind == campaign.KindResult {
			if _, dup := byKey[r.Key()]; !dup {
				byKey[r.Key()] = r
			}
		}
	}
	for _, t := range b.tasks {
		r, ok := byKey[t.Key()]
		if !ok || !b.refs.check(r) {
			st.failed++
		}
	}
	if len(byKey) != len(b.tasks) || len(order) != len(b.spec.Drivers)*max(1, len(b.spec.Scenarios)) || text == "" {
		st.failed = max(st.failed, 1)
	}

	if tr != nil {
		tr.boots = append(tr.boots, spans...)
		tr.busyFrac = append(tr.busyFrac, sumBoots(spans)/(float64(b.workers)*runWall.Seconds()))
		tr.appends = append(tr.appends, ts.appends...)
		tr.flushes = append(tr.flushes, len(ts.flushes))
		tr.flushDurs = append(tr.flushDurs, ts.flushes...)
		tr.opens = append(tr.opens, t2.Sub(t1))
		tr.aggregates = append(tr.aggregates, t3.Sub(t2))
		tr.renders = append(tr.renders, t4.Sub(t3))
		b.recs = byKey
	}
	return st, nil
}

func sumBoots(spans []bootSpan) float64 {
	var d time.Duration
	for _, s := range spans {
		d += s.d
	}
	return d.Seconds()
}

// renderTables renders every aggregated cell as the paper's driver
// table, in store order.
func renderTables(tables map[string]*campaign.TableData, order []string) string {
	var text string
	for _, label := range order {
		text += experiment.FormatDriverTable(experiment.TableFromCampaign(tables[label]), label)
	}
	return text
}

// probeCount is how many tasks the traced run re-boots on its own rigs.
const probeCount = 200

// finishTrace re-boots a seeded subset of the work-list on the
// benchmark's own rigs, with the boot input the campaign worker builds,
// and reads the deterministic per-boot counters the campaign does not
// record. Each probe's step count must equal its campaign record's.
func (b *bootBench) finishTrace(tr *layerTrace) error {
	enums := make(map[string]*driverEnum)
	rigs := make(map[string]*experiment.Rig)
	backend, err := experiment.ParseBackend("")
	if err != nil {
		return err
	}
	var accesses, faults, steps float64
	idx := mutation.Sample(len(b.tasks), min(probeCount, len(b.tasks)), b.seed^0x9e3779b97f4a7c15)
	for _, i := range idx {
		t := b.tasks[i]
		e, ok := enums[t.Driver]
		if !ok {
			if e, err = enumerateDriver(t.Driver); err != nil {
				return err
			}
			enums[t.Driver] = e
		}
		rig, err := probeRig(rigs, t.Driver, t.Scenario)
		if err != nil {
			return err
		}
		m := e.res.Mutants[t.Mutant]
		input := experiment.BootInput{
			Devil:      e.src.Devil,
			Budget:     experiment.ExperimentBudget,
			Backend:    backend,
			FaultSeed:  t.FaultSeed(),
			WallBudget: experiment.DefaultBootWallBudget,
		}
		if e.incr != nil {
			input.Mutation = &cincr.Mutation{Src: e.incr, Index: m.TokenIndex, Replacement: m.Replacement}
		} else {
			input.Tokens = e.res.Apply(m)
		}
		rig.Reset()
		before, _ := rig.Bus.Stats()
		_, err = rig.Boot(input)
		tr.probes++
		if err != nil {
			tr.probeFailed++
			continue
		}
		after, _ := rig.Bus.Stats()
		accesses += float64(after - before)
		if rig.Injector != nil {
			drops, dups, stales := rig.Injector.Stats()
			faults += float64(drops + dups + stales)
		}
		k := rig.Kern.Steps()
		steps += float64(k)
		if rec, ok := b.recs[t.Key()]; !ok || rec.Steps != k {
			tr.probeFailed++
		}
	}
	n := float64(len(idx))
	tr.values["hw.bus_accesses_per_boot"] = ratio(accesses, n)
	tr.values["hw.injected_faults_per_boot"] = ratio(faults, n)
	tr.values["kernel.steps_per_boot"] = ratio(steps, n)
	return nil
}

// probeRig returns the probe rig of a (driver, scenario) cell, built on
// first use with snapshotting off, so every probe runs its full boot
// and its bus counters cover the whole boot.
func probeRig(rigs map[string]*experiment.Rig, driver, scenario string) (*experiment.Rig, error) {
	key := campaign.CellLabel(driver, scenario)
	if r, ok := rigs[key]; ok {
		return r, nil
	}
	desc, err := experiment.WorkloadFor(driver)
	if err != nil {
		return nil, err
	}
	d := *desc
	if scenario != "" {
		if d, err = experiment.ApplyScenario(scenario, d); err != nil {
			return nil, err
		}
	}
	r, err := d.NewRig()
	if err != nil {
		return nil, err
	}
	r.Scenario = scenario
	r.DisableSnapshot = true
	rigs[key] = r
	return r, nil
}

// driverEnum is one driver's mutant enumeration, as the campaign
// workload computes it.
type driverEnum struct {
	src  drivers.Source
	res  *cmut.Result
	incr *cincr.Source // nil when the source is outside the span splitter's shape
}

func enumerateDriver(name string) (*driverEnum, error) {
	src, err := drivers.Load(name)
	if err != nil {
		return nil, err
	}
	toks, err := experiment.ParseDriver(src.Text)
	if err != nil {
		return nil, err
	}
	var opts cmut.Options
	if src.Devil {
		desc, err := experiment.WorkloadFor(name)
		if err != nil {
			return nil, err
		}
		if opts.Interface, err = desc.Interface(); err != nil {
			return nil, err
		}
	}
	res, err := cmut.Enumerate(toks, opts)
	if err != nil {
		return nil, fmt.Errorf("driver %s: %w", name, err)
	}
	e := &driverEnum{src: src, res: res}
	if incr, err := cincr.Analyze(res.Tokens); err == nil {
		e.incr = incr
	}
	return e, nil
}
