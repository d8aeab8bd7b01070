package client

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
)

// The callers' policies: smtctl with its default -max-retries, loadgen,
// and the coordinator's worker handles (the heartbeat's one-attempt
// policy decides like the coordinator's).
var callers = [...]struct {
	name string
	pol  Policy
}{
	{"smtctl", Policy{Retries: 5, Retry429: true}},
	{"loadgen", Policy{Window: 5 * time.Second, Timeout: 10 * time.Second}},
	{"coordinator", Policy{Timeout: 10 * time.Second}},
}

// TestOutcomeTable pins, for every caller's policy, what one attempt's
// outcome does: whether the request is retried, where the next attempt
// goes (the picker starts on a:1 of "a:1,b:2" unless from says
// otherwise), and the typed refusal a 4xx decodes to.
func TestOutcomeTable(t *testing.T) {
	type refusal struct {
		cause        string
		retryAfter   time.Duration
		backpressure bool
	}
	rows := []struct {
		name       string
		status     int // 0: transport error
		retryAfter string
		cause      string
		leader     string
		from       string
		retried    [len(callers)]bool // smtctl, loadgen, coordinator
		next       string
		refusal    *refusal // set for every 4xx
	}{
		{name: "transport error rotates", retried: [3]bool{true, true, false}, next: "b:2"},
		{name: "transport error wraps", from: "b:2", retried: [3]bool{true, true, false}, next: "a:1"},
		{name: "200 leaves the pick", status: 200, next: "a:1"},
		{name: "202 ignores a leader header", status: 202, leader: "b:2", next: "a:1"},
		{name: "400 is a policy refusal", status: 400, next: "a:1", refusal: &refusal{}},
		{name: "404 is a policy refusal", status: 404, next: "a:1", refusal: &refusal{}},
		{name: "bare 429 is backpressure", status: 429, retried: [3]bool{true, false, false}, next: "a:1",
			refusal: &refusal{backpressure: true}},
		{name: "quota 429 with Retry-After", status: 429, retryAfter: "3", cause: "queued-jobs",
			retried: [3]bool{true, false, false}, next: "a:1", refusal: &refusal{cause: "queued-jobs", retryAfter: 3 * time.Second}},
		{name: "Retry-After 0 is no mandate", status: 429, retryAfter: "0", retried: [3]bool{true, false, false}, next: "a:1",
			refusal: &refusal{backpressure: true}},
		{name: "malformed Retry-After is no mandate", status: 429, retryAfter: "soon", cause: "cycle-budget",
			retried: [3]bool{true, false, false}, next: "a:1", refusal: &refusal{cause: "cycle-budget"}},
		{name: "negative Retry-After is no mandate", status: 429, retryAfter: "-5", retried: [3]bool{true, false, false}, next: "a:1",
			refusal: &refusal{backpressure: true}},
		{name: "429 ignores a leader header", status: 429, leader: "b:2", retried: [3]bool{true, false, false}, next: "a:1",
			refusal: &refusal{backpressure: true}},
		{name: "503 follows a listed leader", status: 503, retryAfter: "1", leader: "b:2",
			retried: [3]bool{true, true, false}, next: "b:2"},
		{name: "503 learns an unlisted leader", status: 503, leader: "c:3", retried: [3]bool{true, true, false}, next: "c:3"},
		{name: "503 with unknown leader rotates", status: 503, leader: "unknown", retried: [3]bool{true, true, false}, next: "b:2"},
		{name: "bare 503 rotates", status: 503, retryAfter: "1", retried: [3]bool{true, true, false}, next: "b:2"},
		{name: "502 retries in place", status: 502, retried: [3]bool{true, true, false}, next: "a:1"},
		{name: "504 retries in place", status: 504, retried: [3]bool{true, true, false}, next: "a:1"},
		{name: "500 is final", status: 500, next: "a:1"},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			outcome := func() (*http.Response, error) {
				if row.status == 0 {
					return nil, errors.New("dial tcp: connection refused")
				}
				rec := httptest.NewRecorder()
				for k, v := range map[string]string{"Retry-After": row.retryAfter, "X-Quota-Cause": row.cause, "X-Cluster-Leader": row.leader} {
					if v != "" {
						rec.Header().Set(k, v)
					}
				}
				rec.WriteHeader(row.status)
				fmt.Fprint(rec, `{"error":"no"}`)
				return rec.Result(), nil
			}

			for i, c := range callers {
				resp, err := outcome()
				if got := c.pol.retryable(resp, err) && c.pol.more(0, time.Now()); got != row.retried[i] {
					t.Errorf("%s: retried = %v, want %v", c.name, got, row.retried[i])
				}
			}

			eps := newEndpoints("a:1, b:2")
			if row.from != "" {
				eps.jumpLocked(row.from)
			}
			resp, err := outcome()
			eps.observe(resp, err)
			if got := eps.addr(); got != row.next {
				t.Errorf("next attempt goes to %q, want %q", got, row.next)
			}

			if resp == nil || resp.StatusCode < 400 {
				return
			}
			derr := ResponseError(resp)
			var ref *RefusedError
			isRefusal := errors.As(derr, &ref)
			if isRefusal != (row.refusal != nil) {
				t.Fatalf("ResponseError = %#v; refusal %v, want %v", derr, isRefusal, row.refusal != nil)
			}
			if !strings.Contains(derr.Error(), resp.Status+": no") {
				t.Errorf("error %q lacks the status and the server's message", derr)
			}
			if !isRefusal {
				return
			}
			want := row.refusal
			if ref.Status != row.status || ref.Cause != want.cause || ref.RetryAfter != want.retryAfter || ref.Backpressure() != want.backpressure {
				t.Errorf("refusal = {Status %d Cause %q RetryAfter %v Backpressure %v}, want {%d %q %v %v}",
					ref.Status, ref.Cause, ref.RetryAfter, ref.Backpressure(), row.status, want.cause, want.retryAfter, want.backpressure)
			}
		})
	}
}

// maxSource makes every jitter draw land on its ceiling, so a test can
// read the wait the retry loop chose.
type maxSource struct{}

func (maxSource) Uint64() uint64 { return ^uint64(0) }

// A Retry-After binds the retry only when it goes back to the server
// that sent it: a standby's mandate does not delay the attempt at the
// leader it names.
func TestRetryAfterBindsSameEndpointOnly(t *testing.T) {
	waits := func(addrs string) []time.Duration {
		c := New(addrs, Policy{Retries: 1})
		c.Rand = rand.New(maxSource{})
		var slept []time.Duration
		c.Sleep = func(_ context.Context, d time.Duration) error { slept = append(slept, d); return nil }
		resp, err := c.Do(context.Background(), "get", http.MethodGet, "/x", nil, nil)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("Do = (%v, %v), want a 200 on the second attempt", resp, err)
		}
		resp.Body.Close()
		return slept
	}
	ok := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer ok.Close()
	okAddr := strings.TrimPrefix(ok.URL, "http://")

	var calls atomic.Int32
	busy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "3")
			w.WriteHeader(http.StatusServiceUnavailable)
		}
	}))
	defer busy.Close()
	if got := waits(strings.TrimPrefix(busy.URL, "http://")); len(got) != 1 || got[0] != 3*time.Second {
		t.Errorf("same endpoint: waits %v, want [3s] (the mandate)", got)
	}

	standby := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "3")
		w.Header().Set("X-Cluster-Leader", okAddr)
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer standby.Close()
	if got := waits(strings.TrimPrefix(standby.URL, "http://")); len(got) != 1 || got[0] != BackoffBase {
		t.Errorf("redirected: waits %v, want [%v] (the backoff, not the standby's mandate)", got, BackoffBase)
	}
}

// A Window budget keeps retrying until the window has passed since the
// first attempt, then hands back the last failure.
func TestWindowBudget(t *testing.T) {
	c := New("", Policy{Window: 100 * time.Millisecond})
	c.Sleep = func(context.Context, time.Duration) error { time.Sleep(20 * time.Millisecond); return nil }
	calls := 0
	start := time.Now()
	_, err := c.Retry(context.Background(), "x", func() (*http.Response, error) {
		calls++
		return nil, fmt.Errorf("transient %d", calls)
	})
	if elapsed := time.Since(start); elapsed < 100*time.Millisecond || elapsed > 5*time.Second {
		t.Errorf("gave up after %v, want just past the 100ms window", elapsed)
	}
	if calls < 2 || err == nil || err.Error() != fmt.Sprintf("transient %d", calls) {
		t.Errorf("%d attempts ending in %v, want several and the last failure", calls, err)
	}
}
