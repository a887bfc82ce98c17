package experiment

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/campaign"
)

// legacySpecLine is, byte for byte, the spec record a campaign run on the
// retired per-statement "compiled" backend wrote: that spelling and its
// fingerprint are what such stores carry on disk.
const legacySpecLine = `{"kind":"spec","fingerprint":"0cf41d3a75687e09","spec":{"name":"legacy",` +
	`"drivers":["busmouse_c","busmouse_devil"],"sample_pct":40,"seed":7,"shards":1,"budget":400000,` +
	`"backend":"compiled"},"mutant":0,"site":0,"shard":0}`

// TestLegacyCompiledStoreResumes: a store in the pre-alias record shapes
// — a "compiled" spec record and results carrying dedup_of provenance —
// still reads, aggregates to the same tables, keeps its fingerprint and
// resumes without booting what it holds. Its re-booted tail, run through
// the "compiled" alias, is byte-identical to a block run of the same
// tasks.
func TestLegacyCompiledStoreResumes(t *testing.T) {
	var legacy campaign.Record
	if err := json.Unmarshal([]byte(legacySpecLine), &legacy); err != nil {
		t.Fatal(err)
	}
	spec := *legacy.Spec
	if got := spec.Fingerprint(); got != legacy.Fingerprint {
		t.Fatalf("compiled spec fingerprints as %s, stores carry %s", got, legacy.Fingerprint)
	}
	block := spec
	block.Backend = "block"
	if block.Fingerprint() == legacy.Fingerprint {
		t.Fatal(`the "compiled" alias lost its own fingerprint`)
	}

	// The reference: the same work-list booted on block.
	ref := campaign.NewMemStore()
	if _, err := campaign.Run(block, NewWorkload(), ref, campaign.Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	var refLines [][]byte
	for _, r := range ref.Records()[1:] {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		refLines = append(refLines, append(b, '\n'))
	}

	// The legacy store: the compiled spec record, then block's meta and
	// result lines, every third result with the dedup_of field the old
	// engine appended after "shard".
	store := [][]byte{[]byte(legacySpecLine + "\n")}
	provenance := 0
	for i, line := range refLines {
		if i%3 == 0 && bytes.HasPrefix(line, []byte(`{"kind":"result"`)) {
			line = append(bytes.TrimSuffix(line, []byte("}\n")), fmt.Sprintf(`,"dedup_of":%d}`+"\n", i)...)
			provenance++
		}
		store = append(store, line)
	}
	if provenance == 0 {
		t.Fatal("fixture carries no dedup_of records")
	}
	path := filepath.Join(t.TempDir(), "legacy.jsonl")
	data := bytes.Join(store, nil)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	recs, err := campaign.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotT, gotO, err := campaign.Aggregate(recs)
	if err != nil {
		t.Fatal(err)
	}
	wantT, wantO, err := campaign.Aggregate(ref.Records())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotT, wantT) || !reflect.DeepEqual(gotO, wantO) {
		t.Error("legacy store aggregates to different tables than the block run")
	}

	resume := func() *campaign.Summary {
		t.Helper()
		st, err := campaign.OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		sum, err := campaign.Run(*st.Records()[0].Spec, NewWorkload(), st, campaign.Options{Workers: 1})
		if err != nil {
			t.Fatalf("resume: %v", err)
		}
		return sum
	}
	if sum := resume(); sum.Ran != 0 || sum.Skipped != sum.Total {
		t.Errorf("complete legacy store resumed with %+v, want nothing booted", sum)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, data) {
		t.Error("resuming a complete legacy store rewrote it")
	}

	// Crash-truncate the tail and resume on the compiled alias.
	const dropped = 5
	if err := os.WriteFile(path, bytes.Join(store[:len(store)-dropped], nil), 0o644); err != nil {
		t.Fatal(err)
	}
	if sum := resume(); sum.Ran != dropped {
		t.Fatalf("resume booted %d, want the %d dropped tasks", sum.Ran, dropped)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := bytes.SplitAfter(after, []byte("\n"))
	got = got[len(got)-1-dropped : len(got)-1]
	for i, line := range got {
		if want := refLines[len(refLines)-dropped+i]; !bytes.Equal(line, want) {
			t.Errorf("re-booted record differs from block:\ngot  %s\nwant %s", line, want)
		}
	}
}
