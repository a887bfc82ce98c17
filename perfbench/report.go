package main

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"time"

	"repro/internal/campaign"
	"repro/internal/drivers"
	"repro/internal/experiment"
)

// reportBench is the report workload: the read side of a large store.
// Set-up writes a store holding one synthetic result for every
// enumerated mutant of every driver under each hardware cell; each
// iteration reports it (open, aggregate, render every table) and
// resumes it (a campaign run that finds every task stored and boots
// nothing).
type reportBench struct {
	seed    uint64
	workers int
	path    string
	spec    campaign.Spec

	want     map[string]*campaign.TableData // the synthesised counts, by cell label
	wantText map[string]string              // each cell's table rendered from them
	results  int
}

func newReportBench(seed uint64, tmp string, workers int) *reportBench {
	return &reportBench{
		seed: seed, workers: workers,
		path: filepath.Join(tmp, "report.jsonl"),
		spec: campaign.Spec{
			Name:      "perfbench-report",
			Drivers:   drivers.Names(),
			SamplePct: 100,
			Seed:      seed,
			Scenarios: []string{"pristine", "flaky-bus", "timing"},
		},
	}
}

// splitmix64 is the synthesiser's deterministic generator.
func splitmix64(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// setup enumerates every driver for the mutant-to-site map and writes
// the store through FileStore.Append: the spec record, one meta record
// per cell, then one result per mutant and cell, its outcome drawn from
// the seed.
func (b *reportBench) setup(tr *layerTrace) error {
	enums := make([]*driverEnum, len(b.spec.Drivers))
	for i, d := range b.spec.Drivers {
		e, err := enumerateDriver(d)
		if err != nil {
			return err
		}
		enums[i] = e
	}
	if err := os.Remove(b.path); err != nil && !os.IsNotExist(err) {
		return err
	}
	fs, err := campaign.OpenFile(b.path)
	if err != nil {
		return err
	}
	var store campaign.Store = fs
	var ts *timedStore
	if tr != nil {
		ts = newTimedStore(fs)
		store = ts
	}
	put := func(r campaign.Record) {
		if err == nil {
			err = store.Append(r)
		}
	}
	put(campaign.SpecRecord(b.spec))
	b.want = make(map[string]*campaign.TableData)
	b.results = 0
	for _, sc := range refScenarios {
		for i, d := range b.spec.Drivers {
			n := len(enums[i].res.Mutants)
			m := campaign.Meta{Driver: d, Scenario: sc, Sites: len(enums[i].res.Sites), Enumerated: n, Selected: n}
			put(campaign.MetaRecord(m))
			b.want[campaign.CellLabel(d, sc)] = &campaign.TableData{
				Driver: d, Scenario: sc, Counts: make(map[string]int), SiteSets: make(map[string]map[int]bool),
				TotalSites: m.Sites, Enumerated: n, Selected: n,
			}
		}
	}
	rng := b.seed
	for _, sc := range refScenarios {
		for i, d := range b.spec.Drivers {
			t := b.want[campaign.CellLabel(d, sc)]
			for id, mu := range enums[i].res.Mutants {
				r := campaign.Record{Kind: campaign.KindResult, Driver: d, Scenario: sc, Mutant: id,
					Site:  mu.SiteIndex,
					Row:   experiment.RowOrder[splitmix64(&rng)%uint64(len(experiment.RowOrder))],
					Lost:  splitmix64(&rng)%200 == 0,
					Steps: 1000 + int64(splitmix64(&rng)%experiment.ExperimentBudget),
				}
				put(r)
				t.Counts[r.Row]++
				if t.SiteSets[r.Row] == nil {
					t.SiteSets[r.Row] = make(map[int]bool)
				}
				t.SiteSets[r.Row][r.Site] = true
				if r.Lost {
					t.Losses++
				}
				t.Results++
				b.results++
			}
		}
	}
	if cerr := fs.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("synthesise report store: %w", err)
	}
	b.wantText = make(map[string]string, len(b.want))
	for label, t := range b.want {
		b.wantText[label] = experiment.FormatDriverTable(experiment.TableFromCampaign(t), label)
	}
	if tr != nil {
		tr.appends = append(tr.appends, ts.appends...)
		tr.flushes = append(tr.flushes, len(ts.flushes))
		tr.flushDurs = append(tr.flushDurs, ts.flushes...)
	}
	return nil
}

func (b *reportBench) prepareTrace(*layerTrace) error { return nil }

func (b *reportBench) cycle() int { return 1 }

// iterate runs one report and one resume over the store. Every stored
// result read is one operation; the report's reads fail per cell whose
// rendered table differs from the synthesised counts, and the resume's
// all fail unless it skips every task and boots none.
func (b *reportBench) iterate(tr *layerTrace) (iterStats, error) {
	st := iterStats{ops: 2 * b.results}

	t0 := time.Now()
	fs, err := campaign.OpenFile(b.path)
	var recs []campaign.Record
	if err == nil {
		recs = fs.Records()
		err = fs.Close()
	}
	t1 := time.Now()
	var tables map[string]*campaign.TableData
	if err == nil {
		tables, _, err = campaign.Aggregate(recs)
	}
	t2 := time.Now()
	text := make(map[string]string, len(tables))
	for label, t := range tables {
		text[label] = experiment.FormatDriverTable(experiment.TableFromCampaign(t), label)
	}
	t3 := time.Now()
	st.lat = []time.Duration{t3.Sub(t0)}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: report: %v\n", err)
		st.failed += b.results
	} else {
		for label, want := range b.want {
			got := tables[label]
			if got == nil || text[label] != b.wantText[label] || !maps.Equal(got.Counts, want.Counts) ||
				got.Results != want.Results || got.Losses != want.Losses {
				st.failed += want.Results
			}
		}
		if len(tables) != len(b.want) {
			st.failed = max(st.failed, 1)
		}
	}

	wl := &timedWorkload{Workload: experiment.NewWorkload()}
	opts := campaign.Options{Workers: b.workers}
	if tr != nil {
		wl.Workload = experiment.NewObservedWorkload(tr.col)
		opts.Metrics = tr.metrics
	}
	t4 := time.Now()
	fs, err = campaign.OpenFile(b.path)
	var sum *campaign.Summary
	var t5 time.Time
	if err == nil {
		t5 = time.Now()
		sum, err = campaign.Run(b.spec, wl, fs, opts)
		if cerr := fs.Close(); err == nil {
			err = cerr
		}
	}
	t6 := time.Now()
	if err != nil || sum.Ran != 0 || sum.Skipped != b.results {
		fmt.Fprintf(os.Stderr, "perfbench: resume: err=%v summary=%+v\n", err, sum)
		st.failed += b.results
	}

	if tr != nil {
		tr.opens = append(tr.opens, t1.Sub(t0))
		tr.aggregates = append(tr.aggregates, t2.Sub(t1))
		tr.renders = append(tr.renders, t3.Sub(t2))
		tr.resumes = append(tr.resumes, t6.Sub(t4))
		var expand time.Duration
		for _, d := range wl.expands {
			expand += d
		}
		tr.expands = append(tr.expands, wl.expands...)
		if !t5.IsZero() {
			tr.resumeScans = append(tr.resumeScans, t6.Sub(t5)-expand)
		}
	}
	return st, nil
}

func (b *reportBench) finishTrace(*layerTrace) error { return nil }
