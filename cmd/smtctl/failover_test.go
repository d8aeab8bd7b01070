package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"smtexplore/internal/client"
	"smtexplore/internal/service"
)

// countingServer serves h and counts the requests that reach it, so a
// test can tell which endpoint the client's picker chose.
type countingServer struct {
	*httptest.Server
	hits atomic.Int64
}

func newCountingServer(t *testing.T, h http.HandlerFunc) *countingServer {
	t.Helper()
	s := &countingServer{}
	s.Server = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.hits.Add(1)
		h(w, r)
	}))
	t.Cleanup(s.Close)
	return s
}

func (s *countingServer) addr() string { return strings.TrimPrefix(s.URL, "http://") }

// serveStatus answers any request with a job status.
func serveStatus(w http.ResponseWriter, r *http.Request) {
	w.Write([]byte(`{"id":"j1","state":"done"}`))
}

// dropConn closes the connection without a response: a transport
// error at the client.
func dropConn(w http.ResponseWriter, r *http.Request) {
	if conn, _, err := http.NewResponseController(w).Hijack(); err == nil {
		conn.Close()
	}
}

// redirectTo answers as a standby that names leader.
func redirectTo(leader string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Cluster-Leader", leader)
		w.Header().Set("Retry-After", "0")
		http.Error(w, `{"error":"not the leader"}`, http.StatusServiceUnavailable)
	}
}

// quietClient is smtctl's client for addrs with backoff sleeps skipped.
func quietClient(addrs string) *client.Client {
	c := newClient(addrs, 5, 5*time.Second)
	c.Logf = nil
	c.Sleep = func(context.Context, time.Duration) error { return nil }
	return c
}

// wantHits checks each server's request count.
func wantHits(t *testing.T, when string, srvs map[string]*countingServer, want map[string]int64) {
	t.Helper()
	for name, s := range srvs {
		if got := s.hits.Load(); got != want[name] {
			t.Errorf("%s: %s got %d requests, want %d", when, name, got, want[name])
		}
	}
}

func TestEndpointsRotateOnTransportError(t *testing.T) {
	// a drops its first connection and serves after that; b always
	// drops. The picker starts on a, rotates to b, and wraps back.
	var aDropped atomic.Bool
	a := newCountingServer(t, func(w http.ResponseWriter, r *http.Request) {
		if aDropped.CompareAndSwap(false, true) {
			dropConn(w, r)
			return
		}
		serveStatus(w, r)
	})
	b := newCountingServer(t, dropConn)
	srvs := map[string]*countingServer{"a": a, "b": b}

	c := quietClient(a.addr() + ", " + b.addr())
	if _, err := c.Status(context.Background(), "j1"); err != nil {
		t.Fatalf("status through a rotation: %v", err)
	}
	wantHits(t, "after rotation", srvs, map[string]int64{"a": 2, "b": 1})

	// Success leaves the pick on a.
	if _, err := c.Status(context.Background(), "j1"); err != nil {
		t.Fatal(err)
	}
	wantHits(t, "after a second request", srvs, map[string]int64{"a": 3, "b": 1})
}

func TestEndpointsFollowLeaderRedirect(t *testing.T) {
	ctx := context.Background()

	// A standby naming a listed leader sends the next attempt there.
	leader := newCountingServer(t, serveStatus)
	standby := newCountingServer(t, redirectTo(leader.addr()))
	srvs := map[string]*countingServer{"standby": standby, "leader": leader}
	c := quietClient(standby.addr() + "," + leader.addr())
	if _, err := c.Status(ctx, "j1"); err != nil {
		t.Fatalf("redirect to listed leader: %v", err)
	}
	wantHits(t, "listed leader", srvs, map[string]int64{"standby": 1, "leader": 1})

	// 2xx outcomes leave the pick alone.
	if _, err := c.Status(ctx, "j1"); err != nil {
		t.Fatal(err)
	}
	wantHits(t, "after success", srvs, map[string]int64{"standby": 1, "leader": 2})

	// A leader outside the -server list is learned, not dropped.
	unlisted := newCountingServer(t, serveStatus)
	standby2 := newCountingServer(t, redirectTo(unlisted.addr()))
	srvs = map[string]*countingServer{"standby": standby2, "unlisted": unlisted}
	c = quietClient(standby2.addr())
	for i := 0; i < 2; i++ {
		if _, err := c.Status(ctx, "j1"); err != nil {
			t.Fatalf("redirect to unlisted leader: %v", err)
		}
	}
	wantHits(t, "unlisted leader", srvs, map[string]int64{"standby": 1, "unlisted": 2})

	// "unknown" (standby with no lease in sight) rotates instead.
	other := newCountingServer(t, serveStatus)
	lost := newCountingServer(t, redirectTo("unknown"))
	srvs = map[string]*countingServer{"lost": lost, "other": other}
	c = quietClient(lost.addr() + "," + other.addr())
	if _, err := c.Status(ctx, "j1"); err != nil {
		t.Fatalf("unknown leader: %v", err)
	}
	wantHits(t, "unknown leader", srvs, map[string]int64{"lost": 1, "other": 1})
}

// A submit aimed at a dead endpoint plus a standby must land on the
// real daemon: the dead one rotates away on connection refused, the
// standby 503s with X-Cluster-Leader, and the retry loop's next attempt
// follows it.
func TestClientFailsOverToLeader(t *testing.T) {
	leader := startDaemon(t, service.Config{Workers: 2})

	standby := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Cluster-Leader", leader)
		w.Header().Set("Retry-After", "0")
		http.Error(w, `{"error":"not the leader"}`, http.StatusServiceUnavailable)
	}))
	defer standby.Close()

	// A port that refuses connections: bind, then close.
	dead := httptest.NewServer(http.NotFoundHandler())
	deadAddr := strings.TrimPrefix(dead.URL, "http://")
	dead.Close()

	servers := deadAddr + "," + strings.TrimPrefix(standby.URL, "http://")
	out, err := ctl(t, "ignored:0", "-server", servers, "submit", "-stream", "fadd,iload", "-window", "2000")
	if err != nil {
		t.Fatalf("submit through failover chain: %v", err)
	}
	id := strings.TrimSpace(out)
	if id == "" {
		t.Fatal("submit printed no job ID")
	}
	// The picker now points at the learned leader; wait reuses it.
	if out, err = ctl(t, leader, "wait", id); err != nil {
		t.Fatalf("wait on leader: %v (out %q)", err, out)
	}
}
