package main

import (
	"context"
	"sync/atomic"
	"time"

	"smtexplore/internal/checkpoint"
	"smtexplore/internal/cluster"
	"smtexplore/internal/runner"
	"smtexplore/internal/service"
)

// layer accumulates the calls the benchmark observed through one public
// seam: how many, the time spent inside them, the payload bytes they
// moved, and how many had a useful outcome (a tier hit, a terminal
// poll). Each call also becomes a span when the run is traced.
type layer struct {
	name  string
	tr    *tracer
	calls atomic.Int64
	nanos atomic.Int64
	bytes atomic.Int64
	hits  atomic.Int64
}

func newLayer(name string, tr *tracer) *layer { return &layer{name: name, tr: tr} }

// done books one call that started at start.
func (l *layer) done(start time.Time, bytes int, hit bool) {
	d := time.Since(start)
	l.calls.Add(1)
	l.nanos.Add(int64(d))
	l.bytes.Add(int64(bytes))
	if hit {
		l.hits.Add(1)
	}
	l.tr.laneSpan(l.name, "seam", l.name, start, d, map[string]any{"bytes": bytes, "hit": hit})
}

// meanMS is the mean call latency in milliseconds (0 with no calls).
func (l *layer) meanMS() float64 {
	return ratio(float64(l.nanos.Load())/1e6, float64(l.calls.Load()))
}

// totalMS is the time spent inside the seam, summed over calls.
func (l *layer) totalMS() float64 { return float64(l.nanos.Load()) / 1e6 }

// hitRatio is the share of calls with a useful outcome.
func (l *layer) hitRatio() float64 {
	return ratio(float64(l.hits.Load()), float64(l.calls.Load()))
}

// timedTier decorates the cache's persistent tier (runner.Tier) with
// per-call timing; results pass through unchanged.
type timedTier struct {
	under       runner.Tier
	load, store *layer
}

func (t *timedTier) Load(key string) ([]byte, bool) {
	start := time.Now()
	data, ok := t.under.Load(key)
	t.load.done(start, len(data), ok)
	return data, ok
}

func (t *timedTier) Store(key string, data []byte) {
	start := time.Now()
	t.under.Store(key, data)
	t.store.done(start, len(data), true)
}

// timedSink decorates a checkpoint.Sink with per-call timing; results
// pass through unchanged.
type timedSink struct {
	under      checkpoint.Sink
	load, put  *layer
	deleteCall *layer
}

func (s *timedSink) Load(key string) ([]byte, bool) {
	start := time.Now()
	data, ok := s.under.Load(key)
	s.load.done(start, len(data), ok)
	return data, ok
}

func (s *timedSink) Store(key string, data []byte) {
	start := time.Now()
	s.under.Store(key, data)
	s.put.done(start, len(data), true)
}

func (s *timedSink) Delete(key string) {
	start := time.Now()
	s.under.Delete(key)
	s.deleteCall.done(start, 0, true)
}

// timedWorker decorates the coordinator's cluster.Worker handle (built
// through cluster.Config.Dial) with per-call timing of the forward, the
// progress polls and the result fetch. A poll is useful when it finds
// the remote job terminal. Results and errors pass through unchanged;
// the methods not redefined here are the embedded handle's.
type timedWorker struct {
	cluster.Worker
	forward, poll, result *layer
}

func (w *timedWorker) Submit(ctx context.Context, req service.SubmitRequest, idemKey string) (string, error) {
	start := time.Now()
	id, err := w.Worker.Submit(ctx, req, idemKey)
	w.forward.done(start, 0, err == nil)
	return id, err
}

func (w *timedWorker) Status(ctx context.Context, id string) (service.JobStatus, error) {
	start := time.Now()
	st, err := w.Worker.Status(ctx, id)
	w.poll.done(start, 0, err == nil && terminal(st.State))
	return st, err
}

func (w *timedWorker) Result(ctx context.Context, id string) (service.JobResult, error) {
	start := time.Now()
	res, err := w.Worker.Result(ctx, id)
	w.result.done(start, 0, err == nil)
	return res, err
}

func terminal(state string) bool {
	switch state {
	case service.JobDone, service.JobFailed, service.JobCancelled:
		return true
	}
	return false
}
