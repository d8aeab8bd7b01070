package client

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"smtexplore/internal/service"
)

// The golden files under testdata/ are the job API's wire contract, as
// the daemon serves it. The client speaks it through the service's own
// types, so these tests are what catches a drifting JSON tag: every
// fixture must decode with no unknown field and re-encode to the same
// bytes.

// roundTrip decodes golden into a fresh T, rejecting unknown fields,
// and requires the indented re-encoding to equal the file.
func roundTrip[T any](t *testing.T, file string) T {
	t.Helper()
	golden, err := os.ReadFile("testdata/" + file)
	if err != nil {
		t.Fatal(err)
	}
	var v T
	dec := json.NewDecoder(bytes.NewReader(golden))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&v); err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	again, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(again, '\n'), golden) {
		t.Fatalf("%s does not survive a round trip through %T:\n--- golden ---\n%s--- re-encoded ---\n%s", file, v, golden, again)
	}
	return v
}

func TestWireSubmitStatusResult(t *testing.T) {
	req := roundTrip[service.SubmitRequest](t, "submit.json")
	if len(req.Cells) != 2 || req.Cells[0].Streams[1].ILP != "min" || req.Tenant != "light" || req.Deadline != "90s" {
		t.Errorf("submit body decoded to %+v", req)
	}
	st := roundTrip[service.JobStatus](t, "status-202.json")
	if st.ID != "j0001" || st.State != service.JobQueued || len(st.Cells) != 2 || st.Counts[service.CellPending] != 2 {
		t.Errorf("202 status decoded to %+v", st)
	}
	res := roundTrip[service.JobResult](t, "result.json")
	if res.State != service.JobFailed || len(res.Cells[0].CPI) != 2 || res.Cells[1].Error == "" {
		t.Errorf("result decoded to %+v", res)
	}
}

// The SSE transcript: progress events re-encode byte for byte, the end
// event decodes into the same Event type, and the reader delivers the
// cell events in order before returning the end.
func TestWireEventTranscript(t *testing.T) {
	golden, err := os.ReadFile("testdata/events.sse")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(golden), "\n") {
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		var ev service.Event
		dec := json.NewDecoder(strings.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&ev); err != nil {
			t.Fatalf("event %s: %v", data, err)
		}
		if ev.Type == "" { // the end event: a state summary, not a progress event
			continue
		}
		if again, _ := json.Marshal(ev); string(again) != data {
			t.Errorf("event does not round-trip:\n golden %s\n again  %s", data, again)
		}
	}

	last := -1
	var cells []int
	end, fatal, cause := readEvents(bytes.NewReader(golden), &last, func(ev service.Event) error {
		if ev.Type == "cell" {
			cells = append(cells, ev.Cell)
		}
		return nil
	})
	if fatal != nil || cause != nil || end == nil {
		t.Fatalf("readEvents = (%v, %v, %v), want the end event", end, fatal, cause)
	}
	if end.Job != "j0001" || end.State != service.JobFailed || end.Error == "" {
		t.Errorf("end event = %+v", end)
	}
	if len(cells) != 2 || cells[0] != 0 || cells[1] != 1 || last != 3 {
		t.Errorf("cells %v, last id %d; want [0 1] and 3", cells, last)
	}
}

// wireResponse is a recorded HTTP reply: status, headers and JSON body.
type wireResponse struct {
	Status int               `json:"status"`
	Header map[string]string `json:"header"`
	Body   json.RawMessage   `json:"body"`
}

func replay(t *testing.T, file string) *http.Response {
	t.Helper()
	data, err := os.ReadFile("testdata/" + file)
	if err != nil {
		t.Fatal(err)
	}
	var w wireResponse
	if err := json.Unmarshal(data, &w); err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	resp := &http.Response{
		StatusCode: w.Status,
		Status:     fmt.Sprintf("%d %s", w.Status, http.StatusText(w.Status)),
		Header:     http.Header{},
		Body:       io.NopCloser(bytes.NewReader(w.Body)),
	}
	for k, v := range w.Header {
		resp.Header.Set(k, v)
	}
	return resp
}

func TestWireQuota429(t *testing.T) {
	err := ResponseError(replay(t, "quota-429.json"))
	var ref *RefusedError
	if !errors.As(err, &ref) {
		t.Fatalf("quota 429 decoded to %T %v, want *RefusedError", err, err)
	}
	if ref.Status != http.StatusTooManyRequests || ref.Cause != service.QuotaQueuedJobs ||
		ref.RetryAfter != 3*time.Second || ref.Backpressure() {
		t.Errorf("refusal = %+v backpressure %v", ref, ref.Backpressure())
	}
	want := `429 Too Many Requests: service: tenant "heavy" over quota (queued-jobs): 4 jobs queued, quota 4 (tenant quota: queued-jobs) (retry after 3s)`
	if ref.Error() != want {
		t.Errorf("message\n got %s\nwant %s", ref.Error(), want)
	}
}

func TestWireStandby503(t *testing.T) {
	resp := replay(t, "standby-503.json")
	for _, c := range callers[:2] {
		if !c.pol.retryable(resp, nil) {
			t.Errorf("%s does not retry a standby's 503", c.name)
		}
	}
	eps := newEndpoints("127.0.0.1:8370,127.0.0.1:8372")
	eps.observe(resp, nil)
	if got := eps.addr(); got != "127.0.0.1:8371" {
		t.Errorf("after the redirect the picker is on %q, want the leader 127.0.0.1:8371", got)
	}
	err := ResponseError(resp)
	var ref *RefusedError
	if errors.As(err, &ref) || err.Error() != "503 Service Unavailable: not the leader; retry against 127.0.0.1:8371" {
		t.Errorf("standby 503 decoded to %T %q", err, err)
	}
}
