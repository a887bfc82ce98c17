package main

import (
	"sync"
	"time"

	"repro/internal/campaign"
)

// This file holds the benchmark-side wrappers around the campaign
// engine's Workload, Worker and Store interfaces. They time each call
// from outside the program and attribute every boot to its outcome row;
// the program itself gains no spans.

// bootSpan is one timed Worker.Boot call.
type bootSpan struct {
	d     time.Duration
	row   string
	steps int64
}

// timedWorkload wraps a campaign.Workload to time Expand calls and hand
// out timed workers.
type timedWorkload struct {
	campaign.Workload
	mu      sync.Mutex
	expands []time.Duration
	boots   []bootSpan
}

func (w *timedWorkload) Expand(s campaign.Spec) ([]campaign.Meta, []campaign.Task, error) {
	t0 := time.Now()
	m, t, err := w.Workload.Expand(s)
	d := time.Since(t0)
	w.mu.Lock()
	w.expands = append(w.expands, d)
	w.mu.Unlock()
	return m, t, err
}

func (w *timedWorkload) NewWorker(s campaign.Spec) (campaign.Worker, error) {
	wk, err := w.Workload.NewWorker(s)
	if err != nil {
		return nil, err
	}
	return &timedWorker{Worker: wk, parent: w}, nil
}

// take returns and clears the boots recorded by closed workers.
func (w *timedWorkload) take() []bootSpan {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := w.boots
	w.boots = nil
	return out
}

// timedWorker times each boot into a worker-local buffer, handed to the
// workload on Close (the engine closes every worker before Run returns).
type timedWorker struct {
	campaign.Worker
	parent *timedWorkload
	spans  []bootSpan
}

func (w *timedWorker) Boot(t campaign.Task) (campaign.Outcome, error) {
	t0 := time.Now()
	out, err := w.Worker.Boot(t)
	w.spans = append(w.spans, bootSpan{d: time.Since(t0), row: out.Row, steps: out.Steps})
	return out, err
}

func (w *timedWorker) Close() {
	w.parent.mu.Lock()
	w.parent.boots = append(w.parent.boots, w.spans...)
	w.parent.mu.Unlock()
	w.spans = nil
	w.Worker.Close()
}

// timedStore wraps a FileStore to time every Append and checkpoint
// flush. It forwards SetFlushHook so a campaign.Metrics hook installed
// by the engine still sees every flush.
type timedStore struct {
	*campaign.FileStore
	mu      sync.Mutex
	appends []time.Duration
	flushes []time.Duration
}

func newTimedStore(fs *campaign.FileStore) *timedStore {
	s := &timedStore{FileStore: fs}
	s.SetFlushHook(nil)
	return s
}

func (s *timedStore) Append(r campaign.Record) error {
	t0 := time.Now()
	err := s.FileStore.Append(r)
	d := time.Since(t0)
	s.mu.Lock()
	s.appends = append(s.appends, d)
	s.mu.Unlock()
	return err
}

func (s *timedStore) SetFlushHook(fn func(time.Duration)) {
	s.FileStore.SetFlushHook(func(d time.Duration) {
		s.mu.Lock()
		s.flushes = append(s.flushes, d)
		s.mu.Unlock()
		if fn != nil {
			fn(d)
		}
	})
}
