package experiment

import (
	"bufio"
	"compress/gzip"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/drivers"
	"repro/internal/obs"
)

// referencePath is the benchmark's checked-in interpreter reference:
// every enumerated mutant of every driver booted on the reference
// interpreter, under each hardware cell. This test reads it, never
// writes it.
const referencePath = "../../perfbench/ref/boots.txt.gz"

// refBoot is the reference interpreter's record of one pristine boot.
type refBoot struct {
	site  int
	row   string
	lost  bool
	steps int64
}

// loadPristineReference reads the pristine cells of the reference: a
// "cell <driver> <scenario> <n>" header, then n lines "<site> <row>
// <lost> <steps>" for mutants 0..n-1, where row indexes RowOrder with
// the harness-panic row appended.
func loadPristineReference(t *testing.T) map[string][]refBoot {
	t.Helper()
	f, err := os.Open(referencePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	rows := append(append([]string(nil), RowOrder...), campaign.RowHarnessPanic)
	refs := make(map[string][]refBoot)
	var driver string
	sc := bufio.NewScanner(zr)
	for line := 1; sc.Scan(); line++ {
		fields := strings.Fields(sc.Text())
		if len(fields) == 4 && fields[0] == "cell" {
			driver = ""
			if fields[2] == "pristine" {
				driver = fields[1]
			}
			continue
		}
		if driver == "" {
			continue
		}
		if len(fields) != 4 {
			t.Fatalf("%s line %d: malformed %q", referencePath, line, sc.Text())
		}
		site, err1 := strconv.Atoi(fields[0])
		row, err2 := strconv.Atoi(fields[1])
		steps, err3 := strconv.ParseInt(fields[3], 10, 64)
		if err1 != nil || err2 != nil || err3 != nil || row < 0 || row >= len(rows) {
			t.Fatalf("%s line %d: malformed %q", referencePath, line, sc.Text())
		}
		refs[driver] = append(refs[driver], refBoot{site: site, row: rows[row], lost: fields[2] == "1", steps: steps})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return refs
}

// TestBlockMatchesInterpReference boots every pristine-cell mutant of
// all ten drivers on the block backend — the quiescence fast-forward
// included — and requires each record's site, row, lost flag and step
// count to equal the reference interpreter's. It also requires the
// fast path to have fired on the C drivers whose poll loops it serves,
// so the comparison cannot pass vacuously.
func TestBlockMatchesInterpReference(t *testing.T) {
	if testing.Short() {
		t.Skip("boots all 38,203 pristine mutants")
	}
	refs := loadPristineReference(t)
	fastPath := map[string]bool{"ide_c": true, "ne2000_c": true, "permedia_c": true, "busmaster_c": true}
	for _, driver := range drivers.Names() {
		ref := refs[driver]
		col := obs.New()
		store := campaign.NewMemStore()
		spec := campaign.Spec{Name: "reference", Drivers: []string{driver}, SamplePct: 100, Backend: "block"}
		sum, err := campaign.Run(spec, NewObservedWorkload(col), store,
			campaign.Options{Workers: runtime.GOMAXPROCS(0)})
		if err != nil {
			t.Fatal(err)
		}
		if sum.Ran != len(ref) || len(ref) == 0 {
			t.Fatalf("%s: booted %d mutants, reference has %d", driver, sum.Ran, len(ref))
		}
		mismatches := 0
		for _, r := range store.Records() {
			if r.Kind != campaign.KindResult {
				continue
			}
			if r.Mutant < 0 || r.Mutant >= len(ref) {
				t.Fatalf("%s: mutant %d outside the reference", driver, r.Mutant)
			}
			want := ref[r.Mutant]
			got := refBoot{site: r.Site, row: r.Row, lost: r.Lost, steps: r.Steps}
			if got != want || r.HarnessPanic {
				if mismatches++; mismatches <= 5 {
					t.Errorf("%s mutant %d: block %+v, interpreter %+v", driver, r.Mutant, got, want)
				}
			}
		}
		if mismatches > 0 {
			t.Errorf("%s: %d of %d records differ from the reference", driver, mismatches, len(ref))
		}
		var skipped float64
		for _, s := range col.Gather() {
			if s.Name == MetricQuietSkippedSteps {
				skipped += s.Value
			}
		}
		if fastPath[driver] && skipped == 0 {
			t.Errorf("%s: %s is 0, the fast path never fired", driver, MetricQuietSkippedSteps)
		}
		t.Logf("%s: %d records match the reference, %.0f steps fast-forwarded", driver, len(ref), skipped)
	}
}
