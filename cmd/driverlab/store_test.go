package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestReadOnlyCommandsKeepCorruptStore: status, report and merge only
// read their input stores. A store with one corrupt middle record makes
// each of them fail loudly and stays byte-identical, and a failed merge
// creates no output store.
func TestReadOnlyCommandsKeepCorruptStore(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.jsonl")
	if err := run([]string{"campaign", "run", "-store", path, "-drivers", "busmouse_devil",
		"-sample", "50", "-seed", "3", "-quiet"}); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(good, []byte("\n"))
	if len(lines) < 8 {
		t.Fatalf("store has %d lines, want a middle record to corrupt", len(lines))
	}
	lines[5] = []byte("{\"kind\":\"result\",\"driver\":\n")
	corrupt := bytes.Join(lines, nil)
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}

	out := filepath.Join(dir, "merged.jsonl")
	for _, args := range [][]string{
		{"campaign", "status", path},
		{"campaign", "status", "-store", path},
		{"campaign", "report", "-store", path},
		{"campaign", "merge", "-out", out, path},
	} {
		if err := run(args); err == nil {
			t.Errorf("%v accepted a store with a corrupt middle record", args)
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after, corrupt) {
			t.Fatalf("%v modified the store: %d bytes before, %d after", args, len(corrupt), len(after))
		}
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("failed merge created %s", out)
	}
}

// TestReadOnlyCommandsCreateNoStore: a mistyped store path is an error,
// not a new empty store.
func TestReadOnlyCommandsCreateNoStore(t *testing.T) {
	typo := filepath.Join(t.TempDir(), "typo.jsonl")
	out := filepath.Join(t.TempDir(), "merged.jsonl")
	for _, args := range [][]string{
		{"campaign", "report", "-store", typo},
		{"campaign", "status", typo},
		{"campaign", "merge", "-out", out, typo},
	} {
		if err := run(args); err == nil {
			t.Errorf("%v accepted a missing store", args)
		}
		if _, err := os.Stat(typo); !os.IsNotExist(err) {
			t.Fatalf("%v created %s", args, typo)
		}
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("failed merge created %s", out)
	}
}

// TestResumeKeepsCorruptStore: resume opens its store for appending,
// yet a corrupt middle record is not a crash artefact to truncate. The
// resume fails naming the line and byte offset, and the store — with
// the good records after the corrupt one — stays byte-identical.
func TestResumeKeepsCorruptStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.jsonl")
	if err := run([]string{"campaign", "run", "-store", path, "-drivers", "busmouse_devil",
		"-sample", "50", "-seed", "3", "-shards", "2", "-shard", "0", "-quiet"}); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(good, []byte("\n"))
	if len(lines) < 8 {
		t.Fatalf("store has %d lines, want a middle record to corrupt", len(lines))
	}
	offset := len(bytes.Join(lines[:5], nil))
	lines[5] = []byte("{\"kind\":\"result\",\"driver\":\n")
	corrupt := bytes.Join(lines, nil)
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}

	err = run([]string{"campaign", "resume", "-store", path, "-quiet"})
	want := fmt.Sprintf("malformed record at line 6 (byte offset %d)", offset)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("resume over a corrupt middle record: err = %v, want it to name %q", err, want)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, corrupt) {
		t.Fatalf("resume modified the store: %d bytes before, %d after", len(corrupt), len(after))
	}
}
