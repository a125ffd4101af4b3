package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"flips/internal/fl"
	"flips/internal/model"
)

// span is one timed call into a layer, recorded from the benchmark's side of
// the call. Spans of one job share Job; Parent is the ID of the span that
// caused it (0 for none).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Job    int    `json:"job"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent, job int) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Job: job, Name: name, Start: now})
	return id
}

func (t *tracer) end(id int) {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// timed runs f inside a span and returns its duration in seconds.
func (t *tracer) timed(name string, parent, job int, f func()) float64 {
	id := t.begin(name, parent, job)
	f()
	t.end(id)
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1].seconds()
}

// spanCost measures what recording one span costs, to state the tracing
// overhead per job.
func spanCost() time.Duration {
	t := newTracer()
	const n = 20000
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("cost", 0, 0))
	}
	return time.Since(start) / n
}

// named returns the spans called name.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// childSeconds sums the durations of the spans whose parent is id. The
// engine calls its selector and transport from one goroutine, so children
// never overlap and the sum is the part of the parent they cover.
func (t *tracer) childSeconds(id int) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum float64
	for _, s := range t.spans {
		if s.Parent == id {
			sum += s.seconds()
		}
	}
	return sum
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	return f.Close()
}

// recordingSelector wraps a job's selector: it records every Select call's
// picks for the round-robin check and, with a tracer, a span per Select and
// Observe call under the job's fl.run span. It changes nothing the engine
// sees, so a decorated run stays bit-identical to an undecorated one.
type recordingSelector struct {
	inner fl.Selector
	tr    *tracer // nil records picks only
	job   int
	run   int // the enclosing fl.run span
	calls []selectCall
}

func (s *recordingSelector) Name() string { return s.inner.Name() }

func (s *recordingSelector) Select(round, target int) []int {
	var id int
	if s.tr != nil {
		id = s.tr.begin("selection.select", s.run, s.job)
	}
	ids := s.inner.Select(round, target)
	if s.tr != nil {
		s.tr.end(id)
	}
	s.calls = append(s.calls, selectCall{target: target, ids: append([]int(nil), ids...)})
	return ids
}

func (s *recordingSelector) Observe(fb fl.RoundFeedback) {
	if s.tr == nil {
		s.inner.Observe(fb)
		return
	}
	id := s.tr.begin("selection.observe", s.run, s.job)
	s.inner.Observe(fb)
	s.tr.end(id)
}

// NeedsUpdates forwards the optional fl.UpdateConsumer capability, so the
// engine materializes update vectors exactly when the wrapped selector
// asks for them.
func (s *recordingSelector) NeedsUpdates() bool {
	uc, ok := s.inner.(fl.UpdateConsumer)
	return ok && uc.NeedsUpdates()
}

// tracedTransport wraps a distributed job's fl.ShardTransport with a span
// per training wave, forwarding the optional fl.RoundObserver capability.
type tracedTransport struct {
	inner fl.ShardTransport
	tr    *tracer
	job   int
	run   int
}

func (t *tracedTransport) TrainWave(d fl.TrainDispatch, out []model.LocalResult) error {
	id := t.tr.begin("dist.train_wave", t.run, t.job)
	err := t.inner.TrainWave(d, out)
	t.tr.end(id)
	return err
}

// ObserveRound is a span too: the distributed job broadcasts each round's
// stats to its workers, which is wire time inside fl.Run.
func (t *tracedTransport) ObserveRound(stats fl.RoundStats) {
	ro, ok := t.inner.(fl.RoundObserver)
	if !ok {
		return
	}
	id := t.tr.begin("dist.observe_round", t.run, t.job)
	ro.ObserveRound(stats)
	t.tr.end(id)
}
