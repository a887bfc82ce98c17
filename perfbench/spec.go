package main

import (
	"fmt"
	"time"

	"repro/internal/campaign"
	"repro/internal/devil"
	"repro/internal/devil/check"
	"repro/internal/experiment"
	"repro/internal/mutation"
	"repro/internal/mutation/devilmut"
	"repro/internal/specs"
)

// specBench is the spec workload: the paper's Table 2, every
// single-token mutant of the five Devil specifications compiled by the
// Devil front end. It is exhaustive, so the seed only picks the subset
// the traced run times phase by phase.
type specBench struct {
	refs    specVerdicts
	workers int
	seed    uint64

	specs []specs.Spec
	enums []*devilmut.Result
	jobs  []specJob
}

// specJob is one spec mutant: enumeration index and mutant index.
type specJob struct{ spec, mutant int }

func newSpecBench(seed uint64, workers int) (*specBench, error) {
	refs, err := loadSpecVerdicts()
	if err != nil {
		return nil, err
	}
	return &specBench{refs: refs, workers: workers, seed: seed}, nil
}

// setup enumerates every mutant of every embedded specification, which
// compiles each pristine specification first.
func (b *specBench) setup(tr *layerTrace) error {
	t0 := time.Now()
	b.specs = specs.All()
	b.enums = b.enums[:0]
	b.jobs = b.jobs[:0]
	for si, s := range b.specs {
		res, err := devilmut.Enumerate(s.Source)
		if err != nil {
			return fmt.Errorf("spec %s: %w", s.Name, err)
		}
		if len(res.Mutants) != len(b.refs[s.Name]) {
			return fmt.Errorf("spec %s: %d mutants, the reference has %d",
				s.Name, len(res.Mutants), len(b.refs[s.Name]))
		}
		b.enums = append(b.enums, res)
		for mi := range res.Mutants {
			b.jobs = append(b.jobs, specJob{si, mi})
		}
	}
	if tr != nil {
		tr.enumerates = append(tr.enumerates, time.Since(t0))
	}
	return nil
}

func (b *specBench) prepareTrace(*layerTrace) error { return nil }

func (b *specBench) cycle() int { return 1 }

// iterate checks every mutant on the worker pool and renders Table 2.
// Each mutant is one operation; it fails when its verdict differs from
// the reference.
func (b *specBench) iterate(tr *layerTrace) (iterStats, error) {
	verdicts := make([]bool, len(b.jobs))
	lat := make([]time.Duration, len(b.jobs))
	campaign.ParallelDo(len(b.jobs), b.workers, func(i int) {
		j := b.jobs[i]
		s := b.specs[j.spec]
		t0 := time.Now()
		verdicts[i], _ = devilmut.CheckMutant(b.enums[j.spec], b.enums[j.spec].Mutants[j.mutant], s.Filename)
		lat[i] = time.Since(t0)
	})
	st := iterStats{ops: len(b.jobs), lat: lat}
	rows := make([]experiment.SpecRow, len(b.specs))
	for i, s := range b.specs {
		rows[i] = experiment.SpecRow{Title: s.Title, Lines: s.Lines(),
			Sites: len(b.enums[i].Sites), Mutants: len(b.enums[i].Mutants)}
	}
	for i, j := range b.jobs {
		if verdicts[i] {
			rows[j.spec].Detected++
		}
		if verdicts[i] != b.refs[b.specs[j.spec].Name][j.mutant] {
			st.failed++
		}
	}
	if experiment.FormatTable2(rows) == "" {
		st.failed = max(st.failed, 1)
	}
	return st, nil
}

// specProbes is how many mutants the traced run times phase by phase.
const specProbes = 2000

// finishTrace times the Devil layers separately on a seeded subset of
// mutants: rendering the mutated source, parsing it, and checking the
// mutants that parse.
func (b *specBench) finishTrace(tr *layerTrace) error {
	var render, parse, chk time.Duration
	checked := 0
	idx := mutation.Sample(len(b.jobs), min(specProbes, len(b.jobs)), b.seed^0x9e3779b97f4a7c15)
	for _, i := range idx {
		j := b.jobs[i]
		res := b.enums[j.spec]
		t0 := time.Now()
		src := res.Render(res.Mutants[j.mutant])
		t1 := time.Now()
		dev, err := devil.Parse(b.specs[j.spec].Filename, src)
		t2 := time.Now()
		render += t1.Sub(t0)
		parse += t2.Sub(t1)
		if err != nil {
			continue
		}
		check.Check(dev)
		chk += time.Since(t2)
		checked++
	}
	us := func(d time.Duration, n int) float64 { return ratio(d.Seconds()*1e6, float64(n)) }
	tr.values["devilmut.render_us"] = us(render, len(idx))
	tr.values["devil.parse_us"] = us(parse, len(idx))
	tr.values["devil.check_us"] = us(chk, checked)
	return nil
}
