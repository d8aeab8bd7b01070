package main

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"smtexplore/internal/obs"
)

// maxSpans bounds the spans one traced run keeps in memory; later spans
// are counted as dropped instead of growing the trace without limit.
const maxSpans = 200_000

// tracer keeps the benchmark's own spans in memory and writes them as
// Chrome trace-event JSON at the end of a traced run. Timestamps are
// microseconds since the tracer started. A nil *tracer records nothing,
// so untraced runs pay one nil check per span.
type tracer struct {
	t0 time.Time

	mu      sync.Mutex
	events  []obs.TraceEvent
	dropped int
	groups  map[string]*laneGroup
	names   map[int]string
}

// laneGroup hands out trace rows ("threads") for spans recorded from
// goroutines the benchmark does not own, such as the store calls a
// service makes: a span goes on the first row whose previous spans all
// ended before it started, so rows never hold overlapping spans.
type laneGroup struct {
	base    int
	lastEnd []uint64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), groups: map[string]*laneGroup{}, names: map[int]string{}}
}

func (t *tracer) us(at time.Time) uint64 {
	if at.Before(t.t0) {
		return 0
	}
	return uint64(at.Sub(t.t0) / time.Microsecond)
}

// name labels a fixed trace row.
func (t *tracer) name(tid int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.names[tid] = name
	t.mu.Unlock()
}

// span records a complete span on a fixed row.
func (t *tracer) span(tid int, cat, name string, start time.Time, dur time.Duration, args map[string]any) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.addLocked(tid, cat, name, start, dur, args)
}

// laneSpan records a span on the first free row of the named group.
func (t *tracer) laneSpan(group, cat, name string, start time.Time, dur time.Duration, args map[string]any) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	g := t.groups[group]
	if g == nil {
		g = &laneGroup{base: 1000 * (len(t.groups) + 1)}
		t.groups[group] = g
	}
	ts, end := t.us(start), t.us(start.Add(dur))
	lane := -1
	for i, last := range g.lastEnd {
		if last <= ts {
			lane = i
			break
		}
	}
	if lane < 0 {
		lane = len(g.lastEnd)
		g.lastEnd = append(g.lastEnd, 0)
		t.names[g.base+lane] = fmt.Sprintf("%s #%d", group, lane)
	}
	g.lastEnd[lane] = end
	t.addLocked(g.base+lane, cat, name, start, dur, args)
}

func (t *tracer) addLocked(tid int, cat, name string, start time.Time, dur time.Duration, args map[string]any) {
	if len(t.events) >= maxSpans {
		t.dropped++
		return
	}
	t.events = append(t.events, obs.TraceEvent{
		Name: name, Cat: cat, Ph: "X", Ts: t.us(start), Dur: uint64(dur / time.Microsecond),
		Pid: 1, Tid: tid, Args: args,
	})
}

// write exports the spans, with row names, as a Chrome trace file that
// Perfetto and chrome://tracing open directly.
func (t *tracer) write(path string, meta map[string]string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	tids := make([]int, 0, len(t.names))
	for tid := range t.names {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	evs := []obs.TraceEvent{{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": "perfbench"}}}
	for _, tid := range tids {
		evs = append(evs, obs.TraceEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid, Args: map[string]any{"name": t.names[tid]}})
	}
	evs = append(evs, t.events...)
	other := map[string]string{"dropped_spans": fmt.Sprint(t.dropped)}
	for k, v := range meta {
		other[k] = v
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := (obs.ChromeTrace{TraceEvents: evs, DisplayTimeUnit: "ms", OtherData: other}).Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
