// Package client is the one HTTP client of the smtd job API. Every
// caller in this module that talks to a daemon, a cluster coordinator
// or an HA pair — smtctl, loadgen, the coordinator's worker handles,
// a worker's -join heartbeat and the study engine's daemon backend —
// builds its requests here, so the protocol rules live in one place:
//
//   - the endpoint picker (rotate on a transport error, follow
//     X-Cluster-Leader on a 503, learning leaders not on the list);
//   - one retry loop (capped exponential backoff with full jitter,
//     honouring Retry-After, cancellable mid-backoff);
//   - the decoding of {"error": ...} bodies and typed refusals;
//   - the Idempotency-Key and X-Tenant headers;
//   - per-request and idle timeouts;
//   - the SSE follower with Last-Event-ID resume (sse.go).
//
// Callers differ only in their Policy: how many attempts a request
// gets, whether a 429 is retried, and the per-request timeout.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"smtexplore/internal/service"
)

// Backoff bounds: the first retry waits up to BackoffBase, each later
// one doubles it, and no wait exceeds BackoffCap (a server-mandated
// Retry-After excepted).
const (
	BackoffBase = 200 * time.Millisecond
	BackoffCap  = 5 * time.Second
)

// Policy is what differs between the callers of the one client.
type Policy struct {
	// Retries is the number of retries after the first attempt.
	Retries int
	// Window, when positive, replaces Retries with a time budget: a
	// failed attempt is retried while less than Window has passed since
	// the first one.
	Window time.Duration
	// Retry429 retries a 429. Otherwise a 429 is final, and the caller
	// records it (loadgen counts a shed, the coordinator routes around
	// the busy worker).
	Retry429 bool
	// Timeout bounds each attempt, headers and body both (0: none).
	// Event streams are bounded by silence instead (see Follow).
	Timeout time.Duration
}

// Client sends job-API requests to one server set under one Policy.
// It is safe for concurrent use.
type Client struct {
	Policy
	// Logf receives one line per retry and per stream resume (nil:
	// quiet).
	Logf func(format string, v ...any)
	// Sleep waits between attempts and returns early with ctx's error
	// when ctx is cancelled, so ^C interrupts a long Retry-After.
	// Tests stub it.
	Sleep func(ctx context.Context, d time.Duration) error
	// Rand draws the backoff jitter. Each client owns a source seeded
	// per process, so jitter is independent of any other draw and tests
	// can inject a fixed seed.
	Rand *rand.Rand

	tenant string // rides every submission as X-Tenant when non-empty; see As
	eps    *endpoints
	mu     *sync.Mutex // guards Rand
}

// New builds a client for a comma-separated list of host:port
// addresses: one for a single daemon or coordinator, several for an HA
// pair.
func New(addrs string, p Policy) *Client {
	return &Client{
		Policy: p,
		Sleep:  sleepCtx,
		Rand:   rand.New(rand.NewPCG(uint64(os.Getpid()), uint64(time.Now().UnixNano()))),
		eps:    newEndpoints(addrs),
		mu:     new(sync.Mutex),
	}
}

// As returns a client that submits as tenant and otherwise shares c's
// policy, endpoint picker and jitter source.
func (c *Client) As(tenant string) *Client {
	cp := *c
	cp.tenant = tenant
	return &cp
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

func (c *Client) logf(format string, v ...any) {
	if c.Logf != nil {
		c.Logf(format, v...)
	}
}

// retryable reports whether an attempt's outcome is worth another try
// under this policy. Transport errors, 502, 503 and 504 always are: the
// daemon uses 503 for a journal that could not persist the job and for
// a standby's redirect, both safe to retry. A 429 is retried only when
// the policy says so. Anything else goes back to the caller at once.
func (p Policy) retryable(resp *http.Response, err error) bool {
	if err != nil {
		return true
	}
	switch resp.StatusCode {
	case http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	case http.StatusTooManyRequests:
		return p.Retry429
	}
	return false
}

// more reports whether the budget allows another attempt after the
// try'th retry-eligible failure, for a request first sent at start.
func (p Policy) more(try int, start time.Time) bool {
	if p.Window > 0 {
		return time.Since(start) < p.Window
	}
	return try < p.Retries
}

// budget renders the attempt budget for retry log lines.
func (p Policy) budget(try int) string {
	if p.Window > 0 {
		return fmt.Sprintf("%d, window %v", try+1, p.Window)
	}
	return fmt.Sprintf("%d/%d", try+1, p.Retries)
}

// Retry runs attempt until it yields a non-retryable outcome, the
// budget is spent, or ctx is cancelled mid-backoff. attempt must build
// a fresh request every call. The caller owns the final response's
// body; intermediate ones are closed here.
//
// A Retry-After on a retried response sets the wait when the next
// attempt goes back to the server that sent it. When the endpoint
// picker moved on (a transport error, a standby's redirect), the next
// server owes nothing to the last one's mandate and the usual backoff
// applies.
func (c *Client) Retry(ctx context.Context, what string, attempt func() (*http.Response, error)) (*http.Response, error) {
	start := time.Now()
	delay := BackoffBase
	for try := 0; ; try++ {
		from := c.eps.addr()
		resp, err := attempt()
		if !c.retryable(resp, err) || !c.more(try, start) {
			return resp, err
		}
		wait := delay
		if err == nil && c.eps.addr() == from {
			if ra := retryAfter(resp.Header); ra > 0 {
				wait = ra
			}
		}
		// Full jitter: a uniform draw from (0, wait] spreads a herd of
		// retrying clients out instead of letting it reconverge.
		c.mu.Lock()
		wait = time.Duration(1 + c.Rand.Int64N(int64(wait)))
		c.mu.Unlock()
		if err != nil {
			c.logf("%s: %v; retrying in %s (%s)", what, err, wait.Round(time.Millisecond), c.budget(try))
		} else {
			resp.Body.Close()
			c.logf("%s: %s; retrying in %s (%s)", what, resp.Status, wait.Round(time.Millisecond), c.budget(try))
		}
		if serr := c.Sleep(ctx, wait); serr != nil {
			// Cancelled mid-backoff: surface the cancellation, not the
			// transient failure the retry would have papered over.
			return nil, serr
		}
		delay = min(2*delay, BackoffCap)
	}
}

// send makes one attempt at the current endpoint and lets the picker
// see the outcome. With timed set, Policy.Timeout bounds the attempt
// until the caller closes the body.
func (c *Client) send(ctx context.Context, method, path string, body []byte, hdr http.Header, timed bool) (*http.Response, error) {
	var cancel context.CancelFunc
	if timed && c.Timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, c.Timeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, "http://"+c.eps.addr()+path, rd)
	if err != nil {
		cancel()
		return nil, err
	}
	for k, v := range hdr {
		req.Header[k] = v
	}
	resp, err := http.DefaultClient.Do(req)
	c.eps.observe(resp, err)
	if err != nil {
		cancel()
		return nil, err
	}
	resp.Body = &cancelOnClose{ReadCloser: resp.Body, cancel: cancel}
	return resp, nil
}

// cancelOnClose releases a request's context when the caller finishes
// the body, keeping the deadline armed across the whole read.
type cancelOnClose struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (b *cancelOnClose) Close() error {
	b.cancel()
	return b.ReadCloser.Close()
}

// Do sends one request under the policy's retry budget and returns the
// final response whatever its status; the caller closes its body.
// body is sent as JSON when non-nil.
func (c *Client) Do(ctx context.Context, what, method, path string, body []byte, hdr http.Header) (*http.Response, error) {
	if body != nil {
		if hdr == nil {
			hdr = http.Header{}
		}
		hdr.Set("Content-Type", "application/json")
	}
	return c.Retry(ctx, what, func() (*http.Response, error) {
		return c.send(ctx, method, path, body, hdr, true)
	})
}

// call sends a request and decodes a want-status reply into v (nil:
// discard); any other status becomes the error ResponseError builds.
func (c *Client) call(ctx context.Context, what, method, path string, body []byte, hdr http.Header, want int, v any) error {
	resp, err := c.Do(ctx, what, method, path, body, hdr)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		return ResponseError(resp)
	}
	if v == nil {
		_, err := io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// GetJSON fetches path and decodes a 200 reply into v.
func (c *Client) GetJSON(ctx context.Context, path string, v any) error {
	return c.call(ctx, "get "+path, http.MethodGet, path, nil, nil, http.StatusOK, v)
}

// PostJSON posts body (raw JSON) to path and decodes a 200 reply into
// v (nil: discard).
func (c *Client) PostJSON(ctx context.Context, path string, body []byte, v any) error {
	return c.call(ctx, "post "+path, http.MethodPost, path, body, nil, http.StatusOK, v)
}

// Submit enqueues a batch and returns the 202 status. idemKey, when
// non-empty, rides as Idempotency-Key so a retried submit whose first
// response was lost gets the live job back instead of a duplicate. A
// 4xx comes back as a *RefusedError.
func (c *Client) Submit(ctx context.Context, req service.SubmitRequest, idemKey string) (service.JobStatus, error) {
	var st service.JobStatus
	body, err := json.Marshal(req)
	if err != nil {
		return st, err
	}
	hdr := http.Header{}
	if idemKey != "" {
		hdr.Set("Idempotency-Key", idemKey)
	}
	if c.tenant != "" {
		hdr.Set("X-Tenant", c.tenant)
	}
	err = c.call(ctx, "submit", http.MethodPost, "/v1/jobs", body, hdr, http.StatusAccepted, &st)
	return st, err
}

// Status fetches a job's progress view.
func (c *Client) Status(ctx context.Context, id string) (service.JobStatus, error) {
	var st service.JobStatus
	err := c.GetJSON(ctx, "/v1/jobs/"+id, &st)
	return st, err
}

// Result fetches a terminal job's results.
func (c *Client) Result(ctx context.Context, id string) (service.JobResult, error) {
	var res service.JobResult
	err := c.GetJSON(ctx, "/v1/jobs/"+id+"/result", &res)
	return res, err
}

// Cancel aborts a job. Cancelling a cancelled job is a no-op on the
// server, so the DELETE is safe to retry.
func (c *Client) Cancel(ctx context.Context, id string) (service.JobStatus, error) {
	var st service.JobStatus
	err := c.call(ctx, "cancel "+id, http.MethodDelete, "/v1/jobs/"+id, nil, nil, http.StatusOK, &st)
	return st, err
}

// Stats fetches the daemon's structured metrics snapshot.
func (c *Client) Stats(ctx context.Context) (service.Metrics, error) {
	var m service.Metrics
	err := c.GetJSON(ctx, "/v1/stats", &m)
	return m, err
}

// Health probes /healthz: nil only on a 200. A draining daemon answers
// 503 — alive as a process, but it must not receive new work.
func (c *Client) Health(ctx context.Context) error {
	return c.call(ctx, "healthz", http.MethodGet, "/healthz", nil, nil, http.StatusOK, nil)
}

// RefusedError is a server's well-formed 4xx: it is up and said no —
// a tenant quota, a load shed, a validation failure or an unknown job.
type RefusedError struct {
	Status     int
	Cause      string        // X-Quota-Cause when the refusal is a tenant quota
	Msg        string        // status line and the server's error message
	RetryAfter time.Duration // the Retry-After hint, 0 if absent
}

func (e *RefusedError) Error() string {
	msg := e.Msg
	if e.Cause != "" {
		msg += " (tenant quota: " + e.Cause + ")"
	}
	if e.RetryAfter > 0 {
		msg += fmt.Sprintf(" (retry after %ds)", int(e.RetryAfter/time.Second))
	}
	return msg
}

// Backpressure reports whether the refusal is transient load shedding
// (a bare 429 from the AIMD gate or a full queue) rather than policy.
// A quota-caused 429 is policy — the tenant is over its configured
// limit, and replaying the demand elsewhere would evade enforcement —
// as is any other 4xx.
func (e *RefusedError) Backpressure() bool {
	return e.Status == http.StatusTooManyRequests && e.Cause == ""
}

// ResponseError turns an unexpected reply into an error, consuming the
// body: a *RefusedError for a 4xx, otherwise a plain error carrying the
// status and the server's {"error": ...} message.
func ResponseError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	var e struct {
		Error string `json:"error"`
	}
	msg := strings.TrimSpace(string(body))
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		msg = e.Error
	}
	msg = resp.Status + ": " + msg
	if resp.StatusCode < 400 || resp.StatusCode >= 500 {
		return errors.New(msg)
	}
	return &RefusedError{
		Status:     resp.StatusCode,
		Cause:      resp.Header.Get("X-Quota-Cause"),
		Msg:        msg,
		RetryAfter: retryAfter(resp.Header),
	}
}

// retryAfter reads a Retry-After header in whole seconds. A missing,
// malformed or negative value, and 0, all mean no mandate: the
// client's own backoff applies.
func retryAfter(h http.Header) time.Duration {
	n, err := strconv.Atoi(h.Get("Retry-After"))
	if err != nil || n <= 0 {
		return 0
	}
	return time.Duration(n) * time.Second
}

// endpoints is the picker over the server set. Every request goes to
// the current entry; observe moves it when a server proves unreachable
// (a transport error rotates to the next) or names a better one (a 503
// with X-Cluster-Leader jumps to the leader, a standby's redirect).
// With the retry loop treating both as transient, a coordinator
// failover shows up as latency rather than an error.
type endpoints struct {
	mu   sync.Mutex
	list []string // host:port entries
	cur  int
}

func newEndpoints(addrs string) *endpoints {
	e := &endpoints{}
	for _, a := range strings.Split(addrs, ",") {
		if a = strings.TrimSpace(a); a != "" {
			e.list = append(e.list, a)
		}
	}
	if len(e.list) == 0 {
		e.list = []string{""}
	}
	return e
}

func (e *endpoints) addr() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.list[e.cur]
}

// observe steers the pick from one attempt's outcome. It reads only the
// status and headers, never the body.
func (e *endpoints) observe(resp *http.Response, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	switch {
	case err != nil:
		// Connection refused, reset, timeout: the endpoint is gone or
		// partitioned.
		e.cur = (e.cur + 1) % len(e.list)
	case resp.StatusCode == http.StatusServiceUnavailable:
		if leader := resp.Header.Get("X-Cluster-Leader"); leader != "" && leader != "unknown" {
			e.jumpLocked(leader)
		} else {
			// A draining daemon, or a standby that has not seen a lease.
			e.cur = (e.cur + 1) % len(e.list)
		}
	}
}

// jumpLocked points the picker at addr, learning it when the leader is
// not on the list the caller gave.
func (e *endpoints) jumpLocked(addr string) {
	for i, a := range e.list {
		if a == addr {
			e.cur = i
			return
		}
	}
	e.list = append(e.list, addr)
	e.cur = len(e.list) - 1
}
