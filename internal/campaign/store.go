package campaign

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"
)

// Store is an append-only result store. Append must be safe for
// concurrent use; Records returns everything the store held when it was
// opened plus everything appended since, in order.
type Store interface {
	Records() []Record
	Append(Record) error
	Close() error
}

// MemStore is the in-memory store used by the in-process table paths and
// by tests.
type MemStore struct {
	mu   sync.Mutex
	recs []Record
}

// NewMemStore returns an in-memory store holding recs.
func NewMemStore(recs ...Record) *MemStore { return &MemStore{recs: recs} }

// Records implements Store.
func (s *MemStore) Records() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Record, len(s.recs))
	copy(out, s.recs)
	return out
}

// Append implements Store.
func (s *MemStore) Append(r Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recs = append(s.recs, r)
	return nil
}

// Close implements Store.
func (s *MemStore) Close() error { return nil }

// defaultFlushEvery bounds how many records a crash can lose: the
// buffered writer is flushed on every flushEvery-th append (a
// checkpoint) and on Close. Between checkpoints appends cost a buffered
// memcpy, not a write(2) — the difference is measurable at campaign
// throughput, where every boot appends one record. Spec.FlushEvery (via
// SetFlushEvery) overrides the interval per campaign.
const defaultFlushEvery = 64

// FileStore is the JSONL store: one record per line, encoded straight
// into a buffered writer that is flushed on checkpoint and Close.
// OpenFile truncates a torn trailing line (the crash artefact) so that
// subsequent appends extend the good prefix — the mutants the torn or
// unflushed tail described simply rerun on resume.
type FileStore struct {
	mu         sync.Mutex
	f          *os.File
	w          *bufio.Writer
	enc        *json.Encoder
	flushEvery int
	pending    int // appends since the last flush
	flushHook  func(time.Duration)
	recs       []Record
}

// storeScan is what one pass over a JSONL store found: the records of
// its longest well-formed prefix, that prefix's length in bytes, and the
// first line that is not a complete record, if any.
type storeScan struct {
	recs []Record
	good int64 // byte length of the well-formed prefix
	// bad is the 1-based number of the first line that is not a
	// complete record (0 when every line is one); it starts at byte
	// offset good.
	bad int
	// torn reports that the bad line is the final line and lacks its
	// trailing newline — the artefact of an interrupted append. A torn
	// line is never parsed: its record may be cut anywhere.
	torn bool
	// badErr is why a complete bad line failed to decode.
	badErr error
}

// scanStore reads JSONL records from r up to the first line that is not
// a complete record. Blank lines are skipped. OpenFile and ReadFile
// share it and differ only in what they do with a bad line.
func scanStore(r io.Reader) (storeScan, error) {
	var sc storeScan
	br := bufio.NewReader(r)
	for n := 1; ; n++ {
		line, rerr := br.ReadString('\n')
		if len(line) > 0 {
			if trimmed := strings.TrimSpace(line); trimmed != "" {
				if !strings.HasSuffix(line, "\n") {
					sc.bad, sc.torn = n, true
					return sc, nil
				}
				var rec Record
				if err := json.Unmarshal([]byte(trimmed), &rec); err != nil {
					sc.bad, sc.badErr = n, err
					return sc, nil
				}
				sc.recs = append(sc.recs, rec)
			}
			sc.good += int64(len(line))
		}
		if rerr == io.EOF {
			return sc, nil
		}
		if rerr != nil {
			return sc, rerr
		}
	}
}

// malformed reports a complete bad line by line number and byte offset.
func (sc *storeScan) malformed(path string) error {
	return fmt.Errorf("campaign store %s: malformed record at line %d (byte offset %d): %v",
		path, sc.bad, sc.good, sc.badErr)
}

// OpenFile opens (or creates) a JSONL store at path for appending and
// loads every complete record already present. A file whose very first
// record is unparseable is rejected — it is some other file, not a
// campaign store. After at least one good record, only a torn final
// line (no trailing newline, the artefact of an interrupted append) is
// truncated away; any other malformed line is an error naming its line
// number and byte offset, and the file is left as it was, so good
// records after a corrupt one are never lost.
func OpenFile(path string) (*FileStore, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("campaign store: %w", err)
	}
	sc, err := scanStore(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("campaign store %s: %w", path, err)
	}
	if sc.bad > 0 {
		if len(sc.recs) == 0 {
			f.Close()
			return nil, fmt.Errorf("campaign store %s: not a campaign store (unparseable first record)", path)
		}
		if !sc.torn {
			f.Close()
			return nil, sc.malformed(path)
		}
		if err := f.Truncate(sc.good); err != nil {
			f.Close()
			return nil, fmt.Errorf("campaign store %s: truncate crash artefact: %w", path, err)
		}
	}
	if _, err := f.Seek(sc.good, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("campaign store %s: %w", path, err)
	}
	s := &FileStore{f: f, flushEvery: defaultFlushEvery, recs: sc.recs}
	s.w = bufio.NewWriter(f)
	s.enc = json.NewEncoder(s.w)
	return s, nil
}

// ReadFile loads every record of the JSONL store at path without
// modifying it: the read side of status, report and merge. It never
// creates the file. A torn final line (no trailing newline, the crash
// artefact) is ignored, as a resume would; any other malformed line is
// an error naming its line number and byte offset, and the file is left
// for the operator to inspect.
func ReadFile(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("campaign store: %w", err)
	}
	defer f.Close()
	sc, err := scanStore(f)
	if err != nil {
		return nil, fmt.Errorf("campaign store %s: %w", path, err)
	}
	if sc.bad > 0 && !sc.torn {
		return nil, sc.malformed(path)
	}
	return sc.recs, nil
}

// Records implements Store.
func (s *FileStore) Records() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Record, len(s.recs))
	copy(out, s.recs)
	return out
}

// Append implements Store: one JSON line per record, encoded into the
// buffered writer atomically with respect to other Append calls. The
// encoder terminates every record with '\n', preserving the JSONL
// framing the torn-line recovery depends on.
func (s *FileStore) Append(r Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return fmt.Errorf("campaign store: append after Close")
	}
	if err := s.enc.Encode(r); err != nil {
		return fmt.Errorf("campaign store: append: %w", err)
	}
	// The record is in the buffer and may still reach the file on a later
	// flush, so mirror it in memory even if this checkpoint flush fails —
	// Records() must never under-report what the file can hold.
	s.recs = append(s.recs, r)
	s.pending++
	if s.pending >= s.flushEvery {
		if err := s.flushLocked(); err != nil {
			return err
		}
	}
	return nil
}

// SetFlushEvery overrides the checkpoint interval: how many appends may
// sit in the buffer before a flush. Campaign Run applies Spec.FlushEvery
// through this; n < 1 restores the default. Raising it trades a larger
// crash-loss window (those mutants simply rerun on resume) for fewer
// write(2) calls on long campaigns.
func (s *FileStore) SetFlushEvery(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n < 1 {
		n = defaultFlushEvery
	}
	s.flushEvery = n
}

// Flush forces buffered records to the operating system — the explicit
// checkpoint between the periodic ones.
func (s *FileStore) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return fmt.Errorf("campaign store: flush after Close")
	}
	return s.flushLocked()
}

// SetFlushHook registers fn to observe the duration of every flush —
// the checkpoint-latency seam campaign.Metrics hooks into. A nil fn
// removes the hook.
func (s *FileStore) SetFlushHook(fn func(time.Duration)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flushHook = fn
}

func (s *FileStore) flushLocked() error {
	s.pending = 0
	var t0 time.Time
	if s.flushHook != nil {
		t0 = time.Now()
	}
	if err := s.w.Flush(); err != nil {
		return fmt.Errorf("campaign store: flush: %w", err)
	}
	if s.flushHook != nil {
		s.flushHook(time.Since(t0))
	}
	return nil
}

// Close implements Store, flushing buffered records first.
func (s *FileStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	ferr := s.flushLocked()
	err := s.f.Close()
	s.f = nil
	if err == nil {
		err = ferr
	}
	return err
}
