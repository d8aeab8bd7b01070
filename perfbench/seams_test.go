package main

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"smtexplore/internal/service"
)

type fakeTier struct{ data map[string][]byte }

func (f *fakeTier) Load(key string) ([]byte, bool) { d, ok := f.data[key]; return d, ok }
func (f *fakeTier) Store(key string, data []byte)  { f.data[key] = data }
func (f *fakeTier) Delete(key string)              { delete(f.data, key) }

func TestTimedTierPassesThrough(t *testing.T) {
	under := &fakeTier{data: map[string][]byte{"a": []byte("payload")}}
	tt := &timedTier{under: under, load: newLayer("load", nil), store: newLayer("store", nil)}
	if d, ok := tt.Load("a"); !ok || string(d) != "payload" {
		t.Fatalf("Load(a) = %q, %v", d, ok)
	}
	if d, ok := tt.Load("missing"); ok || d != nil {
		t.Fatalf("Load(missing) = %q, %v", d, ok)
	}
	tt.Store("b", []byte("xy"))
	if string(under.data["b"]) != "xy" {
		t.Fatal("Store did not reach the tier")
	}
	if tt.load.calls.Load() != 2 || tt.load.hits.Load() != 1 || tt.load.bytes.Load() != 7 || tt.store.bytes.Load() != 2 {
		t.Fatalf("counters calls=%d hits=%d bytes=%d stored=%d", tt.load.calls.Load(), tt.load.hits.Load(), tt.load.bytes.Load(), tt.store.bytes.Load())
	}
}

func TestTimedSinkPassesThrough(t *testing.T) {
	under := &fakeTier{data: map[string][]byte{}}
	ts := &timedSink{under: under, load: newLayer("l", nil), put: newLayer("p", nil), deleteCall: newLayer("d", nil)}
	ts.Store("k", []byte("ckpt"))
	if d, ok := ts.Load("k"); !ok || string(d) != "ckpt" {
		t.Fatalf("Load after Store = %q, %v", d, ok)
	}
	ts.Delete("k")
	if _, ok := ts.Load("k"); ok {
		t.Fatal("Delete did not reach the sink")
	}
	if ts.put.calls.Load() != 1 || ts.deleteCall.calls.Load() != 1 || ts.load.calls.Load() != 2 || ts.load.hits.Load() != 1 {
		t.Fatal("sink calls were not all counted")
	}
}

// fakeWorker returns canned values and errors for the timed calls.
type fakeWorker struct {
	id     string
	st     service.JobStatus
	res    service.JobResult
	err    error
	health error
}

func (f *fakeWorker) Name() string { return "w" }
func (f *fakeWorker) Addr() string { return "w:1" }
func (f *fakeWorker) Submit(context.Context, service.SubmitRequest, string) (string, error) {
	return f.id, f.err
}
func (f *fakeWorker) Status(context.Context, string) (service.JobStatus, error) { return f.st, f.err }
func (f *fakeWorker) Result(context.Context, string) (service.JobResult, error) { return f.res, f.err }
func (f *fakeWorker) Cancel(context.Context, string) error                      { return f.err }
func (f *fakeWorker) Health(context.Context) error                              { return f.health }
func (f *fakeWorker) Stats(context.Context) (service.Metrics, error)            { return service.Metrics{}, f.err }

func TestTimedWorkerPassesThrough(t *testing.T) {
	ctx := context.Background()
	fw := &fakeWorker{
		id:  "remote-1",
		st:  service.JobStatus{ID: "remote-1", State: service.JobDone},
		res: service.JobResult{ID: "remote-1", State: service.JobDone, Cells: []service.CellResult{{Label: "x", CPI: []float64{1.5}}}},
	}
	tw := &timedWorker{Worker: fw, forward: newLayer("f", nil), poll: newLayer("p", nil), result: newLayer("r", nil)}
	if id, err := tw.Submit(ctx, service.SubmitRequest{}, "k"); id != "remote-1" || err != nil {
		t.Fatalf("Submit = %q, %v", id, err)
	}
	if st, err := tw.Status(ctx, "remote-1"); !reflect.DeepEqual(st, fw.st) || err != nil {
		t.Fatalf("Status = %+v, %v", st, err)
	}
	if res, err := tw.Result(ctx, "remote-1"); !reflect.DeepEqual(res, fw.res) || err != nil {
		t.Fatalf("Result = %+v, %v", res, err)
	}
	if tw.Name() != "w" || tw.Addr() != "w:1" {
		t.Fatal("identity did not pass through")
	}
	if tw.poll.hits.Load() != 1 {
		t.Fatal("a terminal poll must count as useful")
	}

	boom := errors.New("connection refused")
	fw.err, fw.health = boom, boom
	fw.st = service.JobStatus{State: service.JobRunning}
	if _, err := tw.Submit(ctx, service.SubmitRequest{}, "k"); !errors.Is(err, boom) {
		t.Fatalf("Submit error = %v", err)
	}
	if _, err := tw.Status(ctx, "remote-1"); !errors.Is(err, boom) {
		t.Fatalf("Status error = %v", err)
	}
	if _, err := tw.Result(ctx, "remote-1"); !errors.Is(err, boom) {
		t.Fatalf("Result error = %v", err)
	}
	if err := tw.Health(ctx); !errors.Is(err, boom) {
		t.Fatalf("Health error = %v", err)
	}
	if tw.forward.calls.Load() != 2 || tw.forward.hits.Load() != 1 || tw.poll.hits.Load() != 1 {
		t.Fatal("failed calls must be counted, and not as useful")
	}
}
