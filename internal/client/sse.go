package client

import (
	"bufio"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"smtexplore/internal/service"
)

// Follow streams job id's Server-Sent Events, calling on for every
// progress event in order, and returns the terminal end event (State
// is done, failed or cancelled; Error says why).
//
// A dropped stream is not an error. Follow tracks the id of the last
// event it saw and re-dials with Last-Event-ID, so the server replays
// exactly the missed events: no duplicates, no gaps. With a Timeout
// policy, a stream silent for that long is re-dialled the same way, so
// the timeout bounds silence, not stream length. Re-dials share the
// policy's retry budget. on may be nil. An error from on, or an undecodable payload,
// ends the follow at once.
func (c *Client) Follow(ctx context.Context, id string, on func(service.Event) error) (service.Event, error) {
	last := -1
	start := time.Now()
	for try := 0; ; try++ {
		end, fatal, cause := c.followOnce(ctx, id, &last, on)
		switch {
		case end != nil:
			return *end, nil
		case fatal != nil:
			return service.Event{}, fatal
		case ctx.Err() != nil:
			return service.Event{}, ctx.Err()
		case !c.more(try, start):
			return service.Event{}, fmt.Errorf("event stream interrupted: %v", cause)
		}
		c.logf("wait %s: %v; retrying from event %d (%s)", id, cause, last, c.budget(try))
	}
}

// followOnce opens one event stream and reads it. end is set when the
// terminal event arrived; fatal is an error not worth a re-dial;
// otherwise cause says why the stream stopped early.
func (c *Client) followOnce(ctx context.Context, id string, last *int, on func(service.Event) error) (end *service.Event, fatal, cause error) {
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	resp, err := c.Retry(ctx, "wait "+id, func() (*http.Response, error) {
		hdr := http.Header{}
		if *last >= 0 {
			hdr.Set("Last-Event-ID", strconv.Itoa(*last))
		}
		return c.send(sctx, http.MethodGet, "/v1/jobs/"+id+"/events", nil, hdr, false)
	})
	if err != nil {
		return nil, err, nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, ResponseError(resp), nil
	}
	var body io.Reader = resp.Body
	if c.Timeout > 0 {
		idle := time.AfterFunc(c.Timeout, cancel)
		defer idle.Stop()
		body = idleReset{r: resp.Body, timer: idle, d: c.Timeout}
	}
	end, fatal, cause = readEvents(body, last, on)
	if cause != nil && sctx.Err() != nil && ctx.Err() == nil {
		cause = fmt.Errorf("no events for %v (idle watchdog)", c.Timeout)
	}
	return end, fatal, cause
}

// idleReset re-arms the idle watchdog on every chunk the stream
// delivers.
type idleReset struct {
	r     io.Reader
	timer *time.Timer
	d     time.Duration
}

func (ir idleReset) Read(p []byte) (int, error) {
	n, err := ir.r.Read(p)
	if n > 0 {
		ir.timer.Reset(ir.d)
	}
	return n, err
}

// readEvents parses one SSE connection in the daemon's format: "id:",
// "event:" and "data:" lines, events separated by blank lines, and a
// final "end" event without an id. *last advances to each event id
// seen and never moves backwards, so a re-dial resumes after the
// furthest event delivered.
func readEvents(body io.Reader, last *int, on func(service.Event) error) (end *service.Event, fatal, cause error) {
	var event string
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			event = ""
		case strings.HasPrefix(line, "id: "):
			if n, err := strconv.Atoi(strings.TrimPrefix(line, "id: ")); err == nil && n > *last {
				*last = n
			}
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			var ev service.Event
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				return nil, fmt.Errorf("bad %s payload: %w", cmp.Or(event, "event"), err), nil
			}
			if event == "end" {
				return &ev, nil, nil
			}
			if on != nil {
				if err := on(ev); err != nil {
					return nil, err, nil
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	return nil, nil, errors.New("stream ended before the job finished")
}
