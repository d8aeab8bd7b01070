package client

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"smtexplore/internal/service"
)

// FuzzFollow feeds arbitrary bytes to the SSE follower as the body of
// an event stream that drops once, at cut, and resumes on a second
// connection. The stream comes off the network, so two properties must
// hold for any input: the follower never panics, and the last-event ID
// it resumes from never goes backwards — neither within one connection
// nor across the re-dial.
func FuzzFollow(f *testing.F) {
	golden, err := os.ReadFile("testdata/events.sse")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden, uint16(len(golden)/2))
	f.Add([]byte("id: 7\nevent: cell\ndata: {}\n\nid: 3\nevent: cell\ndata: {}\n\n"), uint16(30))
	f.Add([]byte("id: -4\ndata: {\"cell\":1}\nid: x\nevent: end\ndata: {\"state\":\"done\"}\n"), uint16(0))

	var mu sync.Mutex
	var parts [2][]byte
	var resumes []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		resumes = append(resumes, r.Header.Get("Last-Event-ID"))
		if n := len(resumes); n <= len(parts) {
			w.Write(parts[n-1])
		}
	}))
	defer srv.Close()
	c := New(strings.TrimPrefix(srv.URL, "http://"), Policy{Retries: 2})
	c.Sleep = func(context.Context, time.Duration) error { return nil }

	f.Fuzz(func(t *testing.T, stream []byte, cut uint16) {
		at := min(int(cut), len(stream))
		mu.Lock()
		parts = [2][]byte{stream[:at], stream[at:]}
		resumes = nil
		mu.Unlock()

		c.Follow(context.Background(), "j1", nil)

		mu.Lock()
		defer mu.Unlock()
		prev := -1
		for i, h := range resumes {
			if h == "" {
				if i > 0 && prev >= 0 {
					t.Fatalf("re-dial %d dropped the resume point %d (headers %q)", i, prev, resumes)
				}
				continue
			}
			n, err := strconv.Atoi(h)
			if err != nil || n < prev || n < 0 {
				t.Fatalf("resume IDs went backwards or bad: %q", resumes)
			}
			prev = n
		}

		last := -1
		high := last
		readEvents(bytes.NewReader(stream), &last, func(service.Event) error {
			if last < high {
				t.Fatalf("last-event ID moved back from %d to %d", high, last)
			}
			high = last
			return nil
		})
		if last < high {
			t.Fatalf("last-event ID moved back from %d to %d", high, last)
		}
	})
}
