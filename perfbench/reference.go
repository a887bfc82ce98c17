package main

import (
	"bufio"
	"compress/gzip"
	"embed"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/campaign"
	"repro/internal/drivers"
	"repro/internal/experiment"
	"repro/internal/mutation/devilmut"
	"repro/internal/specs"
)

// The checked-in references are produced by the reference interpreter
// (the semantic oracle), never by the block backend the timed runs use.
// A boot's record is a pure function of (driver, mutant, scenario): the
// sample seed only picks which mutants run, and the fault seed hashes
// the task key alone. So one exhaustive table — every enumerated mutant
// of every driver, under each of the three hardware cells — checks the
// records of any seed's sample without booting the oracle at set-up.

//go:embed ref/boots.txt.gz ref/spec_verdicts.txt
var refFiles embed.FS

// refScenarios are the hardware cells the boot reference covers.
var refScenarios = []string{"", "flaky-bus", "timing"}

// rowCodes numbers the outcome rows in the reference file.
var rowCodes = append(append([]string(nil), experiment.RowOrder...), campaign.RowHarnessPanic)

// bootRef is the oracle's record of one boot.
type bootRef struct {
	Site  int
	Row   string
	Lost  bool
	Steps int64
}

// bootRefs maps a cell label (campaign.CellLabel) to its records,
// indexed by mutant ID.
type bootRefs map[string][]bootRef

// check compares one stored result record with the reference and
// reports whether it agrees.
func (refs bootRefs) check(r campaign.Record) bool {
	cell := refs[campaign.CellLabel(r.Driver, r.Scenario)]
	if r.Mutant < 0 || r.Mutant >= len(cell) || r.HarnessPanic {
		return false
	}
	want := cell[r.Mutant]
	return r.Site == want.Site && r.Row == want.Row && r.Lost == want.Lost && r.Steps == want.Steps
}

// loadBootRefs reads the embedded boot reference.
func loadBootRefs() (bootRefs, error) {
	f, err := refFiles.Open("ref/boots.txt.gz")
	if err != nil {
		return nil, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, fmt.Errorf("boot reference: %w", err)
	}
	return parseBootRefs(zr)
}

// parseBootRefs reads the boot reference format: a "cell <driver>
// <scenario> <n>" header, then n lines "<site> <row> <lost> <steps>"
// for mutants 0..n-1, per cell.
func parseBootRefs(r io.Reader) (bootRefs, error) {
	refs := make(bootRefs)
	sc := bufio.NewScanner(r)
	var cell []bootRef
	var label string
	for line := 1; sc.Scan(); line++ {
		f := strings.Fields(sc.Text())
		if len(f) == 4 && f[0] == "cell" {
			n, err := strconv.Atoi(f[3])
			if err != nil {
				return nil, fmt.Errorf("boot reference line %d: %v", line, err)
			}
			scenario := f[2]
			if scenario == "pristine" {
				scenario = ""
			}
			label = campaign.CellLabel(f[1], scenario)
			cell = make([]bootRef, 0, n)
			refs[label] = cell
			continue
		}
		if len(f) != 4 || label == "" {
			return nil, fmt.Errorf("boot reference line %d: malformed", line)
		}
		site, err1 := strconv.Atoi(f[0])
		row, err2 := strconv.Atoi(f[1])
		steps, err3 := strconv.ParseInt(f[3], 10, 64)
		if err1 != nil || err2 != nil || err3 != nil || row < 0 || row >= len(rowCodes) {
			return nil, fmt.Errorf("boot reference line %d: malformed", line)
		}
		cell = append(cell, bootRef{Site: site, Row: rowCodes[row], Lost: f[2] == "1", Steps: steps})
		refs[label] = cell
	}
	return refs, sc.Err()
}

// specVerdicts maps a Devil spec name to one detected/undetected flag
// per enumerated mutant.
type specVerdicts map[string][]bool

// loadSpecVerdicts reads the embedded Table 2 verdicts: a "spec <name>
// <n>" header, then the n verdicts as '1' (detected) and '0' characters
// spread over any number of lines.
func loadSpecVerdicts() (specVerdicts, error) {
	data, err := refFiles.ReadFile("ref/spec_verdicts.txt")
	if err != nil {
		return nil, err
	}
	out := make(specVerdicts)
	var name string
	for i, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "spec" {
			name = f[1]
			out[name] = nil
			continue
		}
		if name == "" {
			return nil, fmt.Errorf("spec verdicts line %d: verdicts before a header", i+1)
		}
		for _, c := range line {
			if c != '0' && c != '1' {
				return nil, fmt.Errorf("spec verdicts line %d: bad verdict %q", i+1, c)
			}
			out[name] = append(out[name], c == '1')
		}
	}
	return out, nil
}

// generateReferences rebuilds both reference files in dir: every mutant
// of every driver booted on the interpreter under each hardware cell,
// and every Devil spec mutant's compile verdict.
func generateReferences(dir string) error {
	spec := campaign.Spec{
		Name:      "reference",
		Drivers:   drivers.Names(),
		SamplePct: 100,
		Backend:   "interp",
		Scenarios: []string{"pristine", "flaky-bus", "timing"},
	}
	store := campaign.NewMemStore()
	if _, err := campaign.Run(spec, experiment.NewWorkload(), store,
		campaign.Options{Workers: runtime.NumCPU()}); err != nil {
		return err
	}
	rowIndex := make(map[string]int, len(rowCodes))
	for i, r := range rowCodes {
		rowIndex[r] = i
	}
	cells := make(map[string][]campaign.Record)
	for _, r := range store.Records() {
		if r.Kind != campaign.KindResult {
			continue
		}
		label := campaign.CellLabel(r.Driver, r.Scenario)
		cell := cells[label]
		for len(cell) <= r.Mutant {
			cell = append(cell, campaign.Record{})
		}
		cell[r.Mutant] = r
		cells[label] = cell
	}

	f, err := os.Create(filepath.Join(dir, "boots.txt.gz"))
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	w := bufio.NewWriter(zw)
	for _, sc := range refScenarios {
		for _, d := range spec.Drivers {
			cell := cells[campaign.CellLabel(d, sc)]
			name := sc
			if name == "" {
				name = "pristine"
			}
			fmt.Fprintf(w, "cell %s %s %d\n", d, name, len(cell))
			for _, r := range cell {
				lost := 0
				if r.Lost {
					lost = 1
				}
				fmt.Fprintf(w, "%d %d %d %d\n", r.Site, rowIndex[r.Row], lost, r.Steps)
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	var b strings.Builder
	for _, s := range specs.All() {
		res, err := devilmut.Enumerate(s.Source)
		if err != nil {
			return err
		}
		fmt.Fprintf(&b, "spec %s %d\n", s.Name, len(res.Mutants))
		verdicts := make([]byte, len(res.Mutants))
		campaign.ParallelDo(len(res.Mutants), runtime.NumCPU(), func(i int) {
			verdicts[i] = '0'
			if ok, _ := devilmut.CheckMutant(res, res.Mutants[i], s.Filename); ok {
				verdicts[i] = '1'
			}
		})
		for len(verdicts) > 0 {
			n := min(100, len(verdicts))
			b.Write(verdicts[:n])
			b.WriteByte('\n')
			verdicts = verdicts[n:]
		}
	}
	return os.WriteFile(filepath.Join(dir, "spec_verdicts.txt"), []byte(b.String()), 0o644)
}
