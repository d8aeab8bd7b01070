package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"smtexplore/internal/service"
)

// fakeDaemon serves the slice of the job API a client uses: it refuses
// every third submission with 429 and ends job "j2" failed.
func fakeDaemon(t *testing.T) *httptest.Server {
	var n atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		i := n.Add(1)
		if i%3 == 0 {
			http.Error(w, `{"error":"queue full"}`, http.StatusTooManyRequests)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"id":"j%d","state":"queued"}`, i)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		state := "done"
		if r.PathValue("id") == "j2" {
			state = "failed"
		}
		fmt.Fprintf(w, "id: 0\nevent: cell\ndata: {}\n\nevent: end\ndata: {\"job\":%q,\"state\":%q}\n\n", r.PathValue("id"), state)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "{\n  \"id\": \"x\",\n  \"state\": \"done\",\n  \"cells\": [\n    {\n      \"index\": 0,\n      \"label\": \"c\"\n    }\n  ]\n}\n")
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func TestClientOutcomes(t *testing.T) {
	srv := fakeDaemon(t)
	c := &client{http: srv.Client(), base: srv.URL}
	ctx := context.Background()

	one := job{Specs: make([]service.CellSpec, 1), Labels: []string{"c"}}
	o := c.do(ctx, one)
	if o.err != nil || len(o.cells) != 1 || string(o.cells[0]) != `{"index":0,"label":"c"}` || o.total <= 0 {
		t.Fatalf("job 1: err=%v cells=%s total=%v", o.err, o.cells, o.total)
	}
	if o = c.do(ctx, one); o.err == nil || !strings.Contains(o.err.Error(), "failed") {
		t.Fatalf("job 2 ended failed, got err=%v", o.err)
	}
	if o = c.do(ctx, one); o.err == nil || !strings.Contains(o.err.Error(), "429") {
		t.Fatalf("submission 3 was refused, got err=%v", o.err)
	}
}

// The closed loop stops taking jobs at the deadline and returns every
// job it attempted, refused ones included.
func TestClosedLoopKeepsRefusedJobs(t *testing.T) {
	srv := fakeDaemon(t)
	cs := []*client{{http: srv.Client(), base: srv.URL}, {http: srv.Client(), base: srv.URL}}
	next := func() job { return job{Warm: true, Specs: make([]service.CellSpec, 1), Labels: []string{"c"}} }
	outs := closedLoop(context.Background(), cs, next, time.Now().Add(200*time.Millisecond), 6)
	if len(outs) < 6 {
		t.Fatalf("only %d jobs in 200ms against a fake daemon", len(outs))
	}
	tl := tallyJobs(outs, map[int][]service.CellResult{}, len(outs))
	refused := 0
	for _, o := range outs {
		if o.err != nil && strings.Contains(o.err.Error(), "429") {
			refused++
		}
	}
	if refused == 0 || tl.failed < refused {
		t.Fatalf("%d refused, %d failed of %d: refusals must count as failures", refused, tl.failed, len(outs))
	}
}
