package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"smtexplore/internal/client"
	"smtexplore/internal/service"
)

// fakeAttempt builds an attempt closure that replays a scripted status
// sequence (0 = transport error).
func fakeAttempt(t *testing.T, codes []int, calls *int) func() (*http.Response, error) {
	t.Helper()
	return func() (*http.Response, error) {
		if *calls >= len(codes) {
			t.Fatalf("attempt called %d times, scripted %d", *calls+1, len(codes))
		}
		code := codes[*calls]
		*calls++
		if code == 0 {
			return nil, fmt.Errorf("dial tcp: connection refused")
		}
		rec := httptest.NewRecorder()
		if code == http.StatusTooManyRequests {
			rec.Header().Set("Retry-After", "1")
		}
		rec.WriteHeader(code)
		return rec.Result(), nil
	}
}

func TestRetrierBackoffAndOutcomes(t *testing.T) {
	ctx := context.Background()
	var slept []time.Duration
	r := newClient("", 3, 0)
	r.Sleep = func(_ context.Context, d time.Duration) error { slept = append(slept, d); return nil }

	// Transport error, then 503, then success: two retries, then done.
	calls := 0
	resp, err := r.Retry(ctx, "x", fakeAttempt(t, []int{0, http.StatusServiceUnavailable, http.StatusOK}, &calls))
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("do = (%v, %v), want 200", resp, err)
	}
	if calls != 3 || len(slept) != 2 {
		t.Fatalf("calls=%d slept=%d, want 3 attempts with 2 sleeps", calls, len(slept))
	}
	for i, d := range slept {
		if d <= 0 || d > client.BackoffCap {
			t.Errorf("sleep %d = %v, want within (0, %v]", i, d, client.BackoffCap)
		}
	}

	// 429 with Retry-After: 1 — the jittered wait must respect the
	// server's mandate as its ceiling.
	slept = nil
	calls = 0
	resp, err = r.Retry(ctx, "x", fakeAttempt(t, []int{http.StatusTooManyRequests, http.StatusOK}, &calls))
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("429 do = (%v, %v)", resp, err)
	}
	if len(slept) != 1 || slept[0] <= 0 || slept[0] > time.Second {
		t.Errorf("Retry-After sleep %v, want within (0, 1s]", slept)
	}

	// Non-retryable statuses return on the first attempt.
	calls = 0
	resp, _ = r.Retry(ctx, "x", fakeAttempt(t, []int{http.StatusBadRequest}, &calls))
	if calls != 1 || resp.StatusCode != http.StatusBadRequest {
		t.Errorf("400: %d calls, status %d; want 1 call passing it through", calls, resp.StatusCode)
	}

	// An exhausted budget hands back the last failing response.
	r2 := newClient("", 1, 0)
	r2.Sleep = func(context.Context, time.Duration) error { return nil }
	calls = 0
	resp, _ = r2.Retry(ctx, "x", fakeAttempt(t, []int{http.StatusServiceUnavailable, http.StatusServiceUnavailable}, &calls))
	if calls != 2 || resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("exhausted: %d calls, status %d; want 2 calls and the 503", calls, resp.StatusCode)
	}

	// max 0 disables retrying entirely.
	r3 := newClient("", 0, 0)
	calls = 0
	if _, err := r3.Retry(ctx, "x", fakeAttempt(t, []int{0}, &calls)); err == nil || calls != 1 {
		t.Errorf("max-retries 0: err=%v calls=%d, want the transport error after 1 call", err, calls)
	}
}

// The regression the cluster smoke depends on: a cancellation (^C)
// during a long server-mandated Retry-After returns promptly with the
// context error, instead of sleeping out the full mandate. Before the
// fix, the jittered wait used time.Sleep and a 1-hour Retry-After held
// the process hostage.
func TestRetrierCancelledMidBackoffReturnsPromptly(t *testing.T) {
	r := newClient("", 3, 0) // real Sleep, no stub: the select is under test
	ctx, cancel := context.WithCancel(context.Background())
	attempt := func() (*http.Response, error) {
		rec := httptest.NewRecorder()
		rec.Header().Set("Retry-After", "3600")
		rec.WriteHeader(http.StatusTooManyRequests)
		return rec.Result(), nil
	}
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	resp, err := r.Retry(ctx, "x", attempt)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("do under cancellation = (%v, %v), want context.Canceled", resp, err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v to surface; the backoff wait is not honouring ctx", elapsed)
	}
}

// flakyDaemon wraps a real service handler with scripted failures and
// returns the address plus the service for registry assertions.
func flakyDaemon(t *testing.T, cfg service.Config, wrap func(http.Handler) http.Handler) (string, *service.Service) {
	t.Helper()
	svc := service.New(cfg)
	srv := httptest.NewServer(wrap(svc.Handler()))
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	return strings.TrimPrefix(srv.URL, "http://"), svc
}

// A submit whose response is lost (the daemon accepted the job, the
// client saw a 503) is retried and deduplicated by the content-keyed
// Idempotency-Key: one job, not two.
func TestSubmitRetryIsIdempotent(t *testing.T) {
	var lost atomic.Bool
	addr, svc := flakyDaemon(t, service.Config{Workers: 1, MaxActive: 1},
		func(next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" && lost.CompareAndSwap(false, true) {
					// The daemon processes the submit, but the response
					// never reaches the client.
					next.ServeHTTP(httptest.NewRecorder(), r)
					w.WriteHeader(http.StatusServiceUnavailable)
					return
				}
				next.ServeHTTP(w, r)
			})
		})

	// Occupy the single worker so the test job stays queued (a live job
	// is what holds its idempotency key).
	blocker, err := ctl(t, addr, "submit", "-fig", "1")
	if err != nil {
		t.Fatal(err)
	}

	out, err := ctl(t, addr, "submit", "-stream", "fadd", "-window", "2000")
	if err != nil {
		t.Fatalf("retried submit: %v", err)
	}
	id := strings.TrimSpace(out)
	if id == "" {
		t.Fatal("no job ID from retried submit")
	}
	if got := len(svc.Jobs()); got != 2 {
		t.Errorf("%d jobs in the registry, want 2 (blocker + one deduplicated submit)", got)
	}
	for _, jid := range []string{strings.TrimSpace(blocker), id} {
		if _, err := ctl(t, addr, "cancel", jid); err != nil {
			t.Errorf("cancel %s: %v", jid, err)
		}
	}
}

// A 429 backpressure response is retried after the mandated delay until
// the queue drains, instead of failing the submission.
func TestSubmitRetriesBackpressure(t *testing.T) {
	var rejected atomic.Int32
	addr, _ := flakyDaemon(t, service.Config{Workers: 1},
		func(next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" && rejected.Add(1) <= 2 {
					w.Header().Set("Retry-After", "0")
					w.WriteHeader(http.StatusTooManyRequests)
					return
				}
				next.ServeHTTP(w, r)
			})
		})
	out, err := ctl(t, addr, "submit", "-stream", "fadd", "-window", "2000")
	if err != nil {
		t.Fatalf("submit through 429s: %v", err)
	}
	if strings.TrimSpace(out) == "" {
		t.Fatal("no job ID")
	}
	if got := rejected.Load(); got < 3 {
		t.Errorf("submit endpoint hit %d times, want >= 3 (two rejections + success)", got)
	}
}

// abortAfterFlush cuts an SSE connection after its first flush, so the
// client sees a mid-stream drop with events already delivered.
type abortAfterFlush struct {
	http.ResponseWriter
	flushed bool
}

func (a *abortAfterFlush) Flush() {
	if a.flushed {
		panic(http.ErrAbortHandler)
	}
	a.flushed = true
	a.ResponseWriter.(http.Flusher).Flush()
}

func (a *abortAfterFlush) Write(p []byte) (int, error) {
	if a.flushed {
		panic(http.ErrAbortHandler)
	}
	return a.ResponseWriter.Write(p)
}

// wait survives a dropped SSE stream: it reconnects with Last-Event-ID
// and finishes with the correct outcome, without duplicating events.
func TestWaitReconnectsDroppedStream(t *testing.T) {
	var eventsCalls atomic.Int32
	addr, _ := flakyDaemon(t, service.Config{Workers: 1},
		func(next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if strings.HasSuffix(r.URL.Path, "/events") && eventsCalls.Add(1) == 1 {
					next.ServeHTTP(&abortAfterFlush{ResponseWriter: w}, r)
					return
				}
				next.ServeHTTP(w, r)
			})
		})

	out, err := ctl(t, addr, "submit", "-stream", "fadd,iload", "-window", "2000")
	if err != nil {
		t.Fatal(err)
	}
	id := strings.TrimSpace(out)
	out, err = ctl(t, addr, "wait", id)
	if err != nil {
		t.Fatalf("wait across dropped stream: %v", err)
	}
	if !strings.Contains(out, id+" done") {
		t.Errorf("wait output %q lacks %q", out, id+" done")
	}
	if got := eventsCalls.Load(); got != 2 {
		t.Errorf("events endpoint hit %d times, want 2 (drop + reconnect)", got)
	}
	if n := strings.Count(out, "cell 0 ("); n != 1 {
		t.Errorf("cell 0 reported %d times across reconnect, want exactly once:\n%s", n, out)
	}
}

// The backoff jitter must come from the client's own seeded source,
// not the process-global one: identical seeds draw identical jitter,
// and draws elsewhere in the process cannot perturb the sequence.
func TestRetryJitterIsOwnSeededSource(t *testing.T) {
	draws := func(seed uint64) []time.Duration {
		r := newClient("", 3, 0)
		r.Rand = rand.New(rand.NewPCG(seed, seed))
		var waits []time.Duration
		r.Sleep = func(_ context.Context, d time.Duration) error {
			waits = append(waits, d)
			return nil
		}
		calls := 0
		r.Retry(context.Background(), "test", func() (*http.Response, error) {
			calls++
			return nil, fmt.Errorf("transient %d", calls)
		})
		return waits
	}
	a, b := draws(7), draws(7)
	if len(a) != 3 {
		t.Fatalf("expected 3 backoff waits, got %v", a)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged: %v vs %v", a, b)
		}
	}
	if c := draws(8); c[0] == a[0] && c[1] == a[1] && c[2] == a[2] {
		t.Fatalf("different seeds drew identical jitter: %v", c)
	}
}
