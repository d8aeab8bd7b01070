package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"smtexplore/internal/cluster"
	"smtexplore/internal/experiments"
	"smtexplore/internal/runner"
	"smtexplore/internal/service"
	"smtexplore/internal/store"
)

// Service configuration shared by every smtd the jobs workloads start.
const (
	// clients is the closed loop's concurrency: one client per core.
	clients = 2
	// maxActive lets each daemon run one job per client at once, so a
	// warm job never queues behind a cold one on an idle core.
	maxActive = clients
	// checkpointEvery makes the cold kernel cells checkpoint into the
	// store every this many simulated cycles.
	checkpointEvery = 10_000
	// jobTimeout bounds one job end to end; a job past it fails.
	jobTimeout = 60 * time.Second
)

// seams are the jobs workloads' timed public seams, shared by every
// daemon (and the coordinator) of one run.
type seams struct {
	tierLoad, tierStore        *layer // runner.Tier over the disk store
	ckLoad, ckPut, ckDelete    *layer // checkpoint.Sink over the disk store
	forward, poll, resultFetch *layer // cluster.Worker, coordinator side
}

func newSeams(tr *tracer) *seams {
	return &seams{
		tierLoad: newLayer("store.load", tr), tierStore: newLayer("store.store", tr),
		ckLoad: newLayer("checkpoint.load", tr), ckPut: newLayer("checkpoint.put", tr), ckDelete: newLayer("checkpoint.delete", tr),
		forward: newLayer("cluster.forward", tr), poll: newLayer("cluster.poll", tr), resultFetch: newLayer("cluster.result_fetch", tr),
	}
}

// stack is one set-up of a jobs workload: the daemons, and for the
// cluster workload the HA coordinator pair, all serving on loopback.
type stack struct {
	dir      string
	addr     string // where clients send jobs
	seams    *seams
	services []*service.Service
	caches   []*runner.Cache
	leader   *cluster.HANode
	standby  *cluster.HANode
	warmRefs map[string]service.CellResult // warm-pool label → EvalCell result
	stops    []func()                      // teardown, run in reverse
}

func (s *stack) close() {
	for i := len(s.stops) - 1; i >= 0; i-- {
		s.stops[i]()
	}
	os.RemoveAll(s.dir)
}

// serve serves h on ln until the returned stop is called; stop returns
// once the server goroutine has exited.
func serve(ln net.Listener, h http.Handler) (stop func()) {
	srv := &http.Server{Handler: h}
	exited := make(chan struct{})
	go func() {
		srv.Serve(ln)
		close(exited)
	}()
	return func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if srv.Shutdown(ctx) != nil {
			srv.Close()
		}
		<-exited
	}
}

// populate pre-simulates the warm pool into the store (through a cache
// of its own, so the daemons' caches start empty) and returns each
// cell's direct service.EvalCell result, the warm jobs' references.
func populate(ctx context.Context, st *store.Store, pool []streamCell) (map[string]service.CellResult, error) {
	c := runner.NewCache().WithTier(st)
	res, err := runner.Map(ctx, runtime.GOMAXPROCS(0), pool, func(ctx context.Context, cell streamCell) (service.CellResult, error) {
		r := service.EvalCell(ctx, cell.cellSpec(), experiments.Options{Workers: 1, Cache: c})
		if r.State != service.CellDone {
			return r, fmt.Errorf("warm cell %s: %s %s", cell.label(), r.State, r.Error)
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	refs := make(map[string]service.CellResult, len(pool))
	for i, cell := range pool {
		refs[cell.label()] = res[i]
	}
	return refs, nil
}

// startDaemon starts one in-process smtd: a service with the disk store
// as cache tier and checkpoint sink (both behind the timing seams) and a
// journal, served on a loopback listener.
func (s *stack) startDaemon(storeDir, journalDir string) (addr string, err error) {
	st, err := store.Open(storeDir, 1<<30)
	if err != nil {
		return "", err
	}
	jl, err := service.OpenJournal(journalDir)
	if err != nil {
		return "", err
	}
	cache := runner.NewCache().WithTier(&timedTier{under: st, load: s.seams.tierLoad, store: s.seams.tierStore})
	svc := service.New(service.Config{
		MaxActive:       maxActive,
		Cache:           cache,
		Store:           st,
		Journal:         jl,
		CheckpointEvery: checkpointEvery,
		CheckpointSink:  &timedSink{under: st, load: s.seams.ckLoad, put: s.seams.ckPut, deleteCall: s.seams.ckDelete},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return "", err
	}
	stop := serve(ln, svc.Handler())
	s.services = append(s.services, svc)
	s.caches = append(s.caches, cache)
	s.stops = append(s.stops, func() {
		svc.Close()
		stop()
	})
	return ln.Addr().String(), nil
}

// newStack builds a fresh stack in a new directory under the artefact
// directory: the warm pool goes into a fresh store, then the daemons
// (and coordinators) start over it.
func newStack(b *bench, pool []streamCell, clustered bool) (*stack, error) {
	dir, err := os.MkdirTemp(filepath.Join(b.out), b.workload+"-")
	if err != nil {
		return nil, err
	}
	s := &stack{dir: dir, seams: newSeams(b.tr)}
	ok := false
	defer func() {
		if !ok {
			s.close()
		}
	}()
	storeDir := filepath.Join(dir, "store")
	st, err := store.Open(storeDir, 1<<30)
	if err != nil {
		return nil, err
	}
	if s.warmRefs, err = populate(context.Background(), st, pool); err != nil {
		return nil, err
	}
	if !clustered {
		if s.addr, err = s.startDaemon(storeDir, filepath.Join(dir, "journal")); err != nil {
			return nil, err
		}
		ok = true
		return s, nil
	}
	var workers []string
	for i := 0; i < 2; i++ {
		addr, err := s.startDaemon(storeDir, filepath.Join(dir, fmt.Sprintf("journal-%d", i)))
		if err != nil {
			return nil, err
		}
		workers = append(workers, addr)
	}
	if err := s.startHA(filepath.Join(storeDir, "ha"), workers); err != nil {
		return nil, err
	}
	ok = true
	return s, nil
}

// startHA starts the coordinator pair over the shared HA directory,
// waits for one to lead, and registers both workers with both
// coordinators over POST /v1/cluster/register, as worker heartbeats do.
func (s *stack) startHA(haDir string, workers []string) error {
	var lns []net.Listener
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		lns = append(lns, ln)
	}
	dial := func(name, addr string) cluster.Worker {
		return &timedWorker{Worker: cluster.NewRemote(name, addr), forward: s.seams.forward, poll: s.seams.poll, result: s.seams.resultFetch}
	}
	var nodes []*cluster.HANode
	for i, ln := range lns {
		n, err := cluster.NewHA(cluster.HAConfig{
			Name:        fmt.Sprintf("coord-%d", i),
			Addr:        ln.Addr().String(),
			Dir:         haDir,
			Peers:       []string{lns[1-i].Addr().String()},
			Coordinator: cluster.Config{Dial: dial},
		})
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			return err
		}
		stop := serve(ln, n.Handler())
		nodes = append(nodes, n)
		// Teardown runs in reverse: the standby closes before the leader,
		// so the leader's lease release promotes nobody.
		s.stops = append(s.stops, func() {
			n.Close()
			stop()
		})
	}
	deadline := time.Now().Add(15 * time.Second)
	for s.leader == nil {
		for i, n := range nodes {
			if role, _ := n.Role(); role == cluster.RoleLeader {
				s.leader, s.standby = n, nodes[1-i]
				s.addr = lns[i].Addr().String()
			}
		}
		if s.leader == nil {
			if time.Now().After(deadline) {
				return fmt.Errorf("no coordinator became leader")
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	if s.leader == nodes[1] {
		// Make the standby close first whichever node leads.
		s.stops[len(s.stops)-1], s.stops[len(s.stops)-2] = s.stops[len(s.stops)-2], s.stops[len(s.stops)-1]
	}
	for _, ln := range lns {
		for i, w := range workers {
			body := fmt.Sprintf(`{"name":"worker-%d","addr":%q}`, i, w)
			resp, err := http.Post("http://"+ln.Addr().String()+"/v1/cluster/register", "application/json", strings.NewReader(body))
			if err != nil {
				return fmt.Errorf("register worker: %w", err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("register worker: %s", resp.Status)
			}
		}
	}
	for s.leader.Topology().Live < len(workers) {
		if time.Now().After(deadline) {
			return fmt.Errorf("workers never became live on the leader")
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

// outcome is one job as its client saw it.
type outcome struct {
	job                  job
	seq                  int // index in the job sequence
	id                   string
	err                  error
	total                time.Duration
	submit, wait, result time.Duration
	resultBytes          int
	cells                []json.RawMessage // the job's cell results, as served (compacted)
}

// client is one closed-loop client of the jobs workloads.
type client struct {
	http *http.Client
	base string
	tr   *tracer
	tid  int
}

// do runs one job: submit, follow its SSE events to the terminal state,
// fetch its result.
func (c *client) do(ctx context.Context, j job) (o outcome) {
	o.job = j
	ctx, cancel := context.WithTimeout(ctx, jobTimeout)
	defer cancel()
	start := time.Now()
	defer func() {
		o.total = time.Since(start)
		c.tr.span(c.tid, "job", j.Kind, start, o.total, map[string]any{"job": o.id, "cells": len(j.Specs), "first": j.Labels[0], "ok": o.err == nil})
	}()

	body, err := json.Marshal(service.SubmitRequest{Cells: j.Specs})
	if err != nil {
		o.err = err
		return o
	}
	t := time.Now()
	var st service.JobStatus
	code, err := c.call(ctx, http.MethodPost, "/v1/jobs", bytes.NewReader(body), func(r io.Reader) error {
		return json.NewDecoder(r).Decode(&st)
	})
	o.submit = c.spanSince("submit", t)
	if err == nil && code != http.StatusAccepted {
		err = fmt.Errorf("submit refused: HTTP %d", code)
	}
	if err != nil {
		o.err = err
		return o
	}
	o.id = st.ID

	t = time.Now()
	var end struct{ State, Error string }
	code, err = c.call(ctx, http.MethodGet, "/v1/jobs/"+o.id+"/events", nil, func(r io.Reader) error {
		return followEvents(r, &end)
	})
	o.wait = c.spanSince("wait", t)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("events: HTTP %d", code)
	}
	if err == nil && end.State != service.JobDone {
		err = fmt.Errorf("job %s ended %s: %s", o.id, end.State, end.Error)
	}
	if err != nil {
		o.err = err
		return o
	}

	t = time.Now()
	var res struct {
		State string
		Cells []json.RawMessage
	}
	code, err = c.call(ctx, http.MethodGet, "/v1/jobs/"+o.id+"/result", nil, func(r io.Reader) error {
		data, err := io.ReadAll(r)
		o.resultBytes = len(data)
		if err != nil {
			return err
		}
		return json.Unmarshal(data, &res)
	})
	o.result = c.spanSince("result", t)
	switch {
	case err != nil:
	case code != http.StatusOK:
		err = fmt.Errorf("result: HTTP %d", code)
	case res.State != service.JobDone || len(res.Cells) != len(j.Specs):
		err = fmt.Errorf("result: state %s with %d of %d cells", res.State, len(res.Cells), len(j.Specs))
	default:
		for _, raw := range res.Cells {
			var compact bytes.Buffer
			if err = json.Compact(&compact, raw); err != nil {
				break
			}
			o.cells = append(o.cells, compact.Bytes())
		}
	}
	o.err = err
	return o
}

func (c *client) spanSince(name string, start time.Time) time.Duration {
	d := time.Since(start)
	c.tr.span(c.tid, "job", name, start, d, nil)
	return d
}

// call performs one request and hands the response body to read.
func (c *client) call(ctx context.Context, method, path string, body io.Reader, read func(io.Reader) error) (int, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil
	}
	return resp.StatusCode, read(resp.Body)
}

// followEvents reads an SSE stream to its "end" event and decodes that
// event's data (the terminal job state).
func followEvents(r io.Reader, end any) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	isEnd := false
	for sc.Scan() {
		line := sc.Text()
		if ev, ok := strings.CutPrefix(line, "event: "); ok {
			isEnd = ev == "end"
			continue
		}
		if data, ok := strings.CutPrefix(line, "data: "); ok && isEnd {
			return json.Unmarshal([]byte(data), end)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("event stream ended without an end event")
}

// closedLoop runs the clients until the deadline, and at least until
// minJobs jobs were taken: each client takes the next job of the shared
// sequence, runs it to completion, and only then takes another. Cold
// jobs are submitted one at a time — a client that takes one waits
// until no other cold job is in flight — so every cold job simulates
// beside the same background of warm traffic, not sometimes beside a
// second simulation, which varied from run to run and made the cold
// latencies bimodal. Jobs in flight at the deadline complete and count.
// Outcomes carry their index in the sequence.
func closedLoop(ctx context.Context, cs []*client, next func() job, deadline time.Time, minJobs int) []outcome {
	var mu sync.Mutex
	var out []outcome
	taken := 0
	take := func() (job, int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if taken >= minJobs && !time.Now().Before(deadline) {
			return job{}, 0, false
		}
		taken++
		return next(), taken - 1, true
	}
	coldToken := make(chan struct{}, 1)
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for {
				j, seq, ok := take()
				if !ok {
					return
				}
				if !j.Warm {
					coldToken <- struct{}{}
				}
				o := c.do(ctx, j)
				if !j.Warm {
					<-coldToken
				}
				o.seq = seq
				mu.Lock()
				out = append(out, o)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return out
}

// Latency percentiles are taken over the leading jobs of the sequence,
// which every run completes (one in coldEvery of them cold), so every run
// of a seed summarizes the same requests; throughput counts every job of
// the timed phase. Each lead takes 10-15 seconds on a 2-core Xeon.
const (
	smtdLeadJobs    = 60 * coldEvery
	clusterLeadJobs = 30 * coldEvery
)

func runJobsSMTD(b *bench) error    { return runJobs(b, false, smtdLeadJobs) }
func runJobsCluster(b *bench) error { return runJobs(b, true, clusterLeadJobs) }

// serviceTotals sums the daemons' queue-wait, journal and cache counters.
type serviceTotals struct {
	queueWaitS           float64
	queuePops, journalW  uint64
	cacheHits, cacheMiss uint64
}

func (s *stack) totals() serviceTotals {
	var t serviceTotals
	for _, svc := range s.services {
		m := svc.Snapshot()
		t.queueWaitS += m.QueueWaitSeconds
		t.queuePops += m.QueueWaitPops
		t.journalW += m.JournalWrites
	}
	for _, c := range s.caches {
		cs := c.Stats()
		t.cacheHits += cs.Hits
		t.cacheMiss += cs.Misses
	}
	return t
}

func runJobs(b *bench, clustered bool, lead int) error {
	pool := warmPool(b.seed)
	var st *stack
	teardown, err := b.setup(func() (func(), error) {
		var err error
		st, err = newStack(b, pool, clustered)
		if err != nil {
			return nil, err
		}
		return st.close, nil
	})
	if err != nil {
		return err
	}
	defer teardown()
	gen, err := newJobGen(b.seed, pool)
	if err != nil {
		return err
	}
	transport := &http.Transport{MaxIdleConnsPerHost: 2 * clients}
	defer transport.CloseIdleConnections()
	var cs []*client
	for i := 0; i < clients; i++ {
		cs = append(cs, &client{http: &http.Client{Transport: transport}, base: "http://" + st.addr, tr: b.tr, tid: i + 1})
		b.tr.name(i+1, fmt.Sprintf("client %d", i))
	}
	before := st.totals()
	storeHitsBefore := st.seams.tierLoad.hits.Load()
	var seqBefore uint64
	if clustered {
		seqBefore = st.leader.Topology().JournalSeq
	}
	var outs []outcome
	ps, err := b.timed(func() {
		outs = closedLoop(context.Background(), cs, gen.next, time.Now().Add(b.seconds), lead)
	})
	if err != nil {
		return err
	}
	after := st.totals()
	storeHits := st.seams.tierLoad.hits.Load() - storeHitsBefore

	// Cold references: a direct EvalCell of every cold job's spec, after
	// the timed phase, one per core at a time.
	var coldIdx []int
	for i, o := range outs {
		if !o.job.Warm {
			coldIdx = append(coldIdx, i)
		}
	}
	pos := make([]int, len(coldIdx))
	for k := range pos {
		pos[k] = k
	}
	refTimes := make([]float64, len(coldIdx))
	refs, err := runner.Map(context.Background(), runtime.GOMAXPROCS(0), pos, func(ctx context.Context, k int) (service.CellResult, error) {
		start := time.Now()
		r := service.EvalCell(ctx, outs[coldIdx[k]].job.Specs[0], experiments.Options{Workers: 1})
		refTimes[k] = ms(time.Since(start))
		return r, nil
	})
	if err != nil {
		return err
	}
	want := make(map[int][]service.CellResult, len(outs))
	for k, i := range coldIdx {
		want[i] = []service.CellResult{refs[k]}
	}
	for i, o := range outs {
		if o.job.Warm {
			for _, l := range o.job.Labels {
				want[i] = append(want[i], st.warmRefs[l])
			}
		}
	}
	t := tallyJobs(outs, want, lead)
	b.attempted, b.failed = len(outs), t.failed
	for _, f := range t.failures {
		b.note("failed job %s", f)
	}
	var mismatchErr error
	if t.mismatches > 0 {
		mismatchErr = fmt.Errorf("%d job results differ", t.mismatches)
	}
	b.check("every job result byte-identical to a direct service.EvalCell of its spec", mismatchErr)
	ok := len(outs) - t.failed
	if ok == 0 {
		return fmt.Errorf("no job completed")
	}

	secs := ps.elapsed.Seconds()
	b.e2e["jobs_per_s"] = float64(ok) / secs
	b.e2e["cells_per_s"] = float64(t.coldDone) / secs
	b.e2e["sim_mcycles_per_s"] = t.simCycles / secs / 1e6
	b.latencyMetrics("warm", t.warm)
	b.latencyMetrics("cold", t.cold)
	b.note("jobs warm=%d cold=%d in the leading %d; elapsed_s=%.3f warm_pool=%d", len(t.warm), len(t.cold), lead, secs, len(pool))
	// A warm cell's first touch on a daemon misses its memory cache and
	// loads from the store tier; repeats are served from memory.
	b.note("warm jobs served from the store tier %d of %d (%.1f%%), from memory %d",
		storeHits, t.warmDone, 100*ratio(float64(storeHits), float64(t.warmDone)), int64(t.warmDone)-storeHits)

	if b.digest, err = poolDigest(pool, st.warmRefs); err != nil {
		return err
	}
	b.note("sim_digest %s over the %d warm-pool cells", b.digest, len(pool))

	if !b.traced {
		return nil
	}
	n := float64(ok)
	sm := st.seams
	b.layer("service.submit_ms", mean(t.submit), "ms")
	b.layer("service.wait_ms", mean(t.wait), "ms")
	b.layer("service.result_ms", mean(t.result), "ms")
	b.layer("service.result_bytes", t.resultBytes/n, "B")
	b.layer("service.queue_wait_ms", 1000*ratio(after.queueWaitS-before.queueWaitS, float64(after.queuePops-before.queuePops)), "ms")
	b.layer("service.journal_writes", float64(after.journalW-before.journalW)/n, "1/job")
	b.layer("runner.cache_hit_ratio", ratio(float64(after.cacheHits-before.cacheHits), float64(after.cacheHits-before.cacheHits+after.cacheMiss-before.cacheMiss)), "ratio")
	b.layer("store.load_ms", sm.tierLoad.meanMS(), "ms")
	b.layer("store.load_hit_ratio", sm.tierLoad.hitRatio(), "ratio")
	b.layer("store.store_ms", sm.tierStore.meanMS(), "ms")
	b.layer("store.bytes_read", float64(sm.tierLoad.bytes.Load()), "B")
	b.layer("store.bytes_written", float64(sm.tierStore.bytes.Load()), "B")
	b.layer("checkpoint.put_ms", sm.ckPut.meanMS(), "ms")
	b.layer("checkpoint.bytes_written", float64(sm.ckPut.bytes.Load()), "B")
	b.layer("experiments.cell_ms.p50", median(latencies(refTimes).sorted()), "ms")
	b.layer("smt.host_ns_per_cycle", ratio(1e6*sumOf(refTimes), t.simCycles), "ns")
	b.runtimeLayers(ps, len(outs))

	// What the traced seams explain of the jobs' summed latency: queue
	// waits, store and checkpoint calls, simulation (the references'
	// time), and in the cluster the forwards and result fetches. Polls
	// are left out: they run while the worker simulates.
	attributed := 1000*(after.queueWaitS-before.queueWaitS) + sm.tierLoad.totalMS() + sm.tierStore.totalMS() +
		sm.ckLoad.totalMS() + sm.ckPut.totalMS() + sm.ckDelete.totalMS() + sumOf(refTimes)
	if clustered {
		attributed += sm.forward.totalMS() + sm.resultFetch.totalMS()
		b.layer("cluster.forward_ms", sm.forward.meanMS(), "ms")
		b.layer("cluster.poll_ms", sm.poll.meanMS(), "ms")
		b.layer("cluster.polls_per_job", float64(sm.poll.calls.Load())/n, "1/job")
		b.layer("cluster.poll_useful_ratio", sm.poll.hitRatio(), "ratio")
		b.layer("cluster.result_fetch_ms", sm.resultFetch.meanMS(), "ms")
		b.layer("cluster.journal_records_per_job", float64(st.leader.Topology().JournalSeq-seqBefore)/n, "1/job")
		b.layer("cluster.standby_lag_bytes", float64(st.standby.Topology().StandbyLagBytes), "B")
	}
	b.layer("jobs.unattributed_ms", (sumOf(t.lat)-attributed)/float64(len(outs)), "ms")
	return nil
}

// tally is the accounting of one run's jobs. A job that was refused,
// failed, timed out or returned a result unlike its reference counts as
// attempted and failed, and, among the leading jobs, as a latency beyond
// every limit in its class.
type tally struct {
	failed, mismatches     int
	warmDone, coldDone     int
	failures               []string  // the first few failures, described
	warm, cold             latencies // the leading jobs'
	lat                    []float64 // every job's latency, failures at failedLatencyMS
	submit, wait, result   []float64 // per successful job
	resultBytes, simCycles float64
}

// tallyJobs accounts outs against want, the reference cell results of
// each job by index; jobs with a sequence index below lead are the
// latency population.
func tallyJobs(outs []outcome, want map[int][]service.CellResult, lead int) tally {
	var t tally
	for i, o := range outs {
		t.lat = append(t.lat, finite(ms(o.total)))
		if o.err == nil {
			if o.err = sameCells(o.cells, want[i]); o.err != nil {
				t.mismatches++
			}
		}
		var class *latencies // nil discards samples outside the leading jobs
		switch {
		case o.seq >= lead:
			class = nil
		case o.job.Warm:
			class = &t.warm
		default:
			class = &t.cold
		}
		if o.err != nil {
			t.failed++
			t.lat[len(t.lat)-1] = failedLatencyMS
			class.fail()
			if len(t.failures) < 5 {
				t.failures = append(t.failures, fmt.Sprintf("%s (%s): %v", o.id, o.job.Kind, o.err))
			}
			continue
		}
		class.add(ms(o.total))
		t.submit = append(t.submit, ms(o.submit))
		t.wait = append(t.wait, ms(o.wait))
		t.result = append(t.result, ms(o.result))
		t.resultBytes += float64(o.resultBytes)
		if o.job.Warm {
			t.warmDone++
		} else {
			t.coldDone++
			t.simCycles += float64(cellCycles(o.job.Specs[0], o.cells[0]))
		}
	}
	return t
}

// cellCycles is the simulated cycles of a cold job: the window of a
// stream cell, the run length a kernel cell reports.
func cellCycles(spec service.CellSpec, cell json.RawMessage) uint64 {
	if spec.Type == service.TypeStream {
		return spec.Window
	}
	var r service.CellResult
	if json.Unmarshal(cell, &r) != nil || r.Kernel == nil {
		return 0
	}
	return r.Kernel.Cycles
}

// sameCells reports whether the served cells are byte-identical to the
// references, each encoded as the service encodes the cell at its index.
func sameCells(got []json.RawMessage, want []service.CellResult) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d cells, want %d", len(got), len(want))
	}
	for k, ref := range want {
		ref.Index = k
		data, err := json.Marshal(ref)
		if err != nil {
			return err
		}
		if !bytes.Equal(got[k], data) {
			return fmt.Errorf("cell %d (%s) differs from a direct EvalCell of the same spec", k, ref.Label)
		}
	}
	return nil
}

// poolDigest digests the warm pool's reference results in pool order.
func poolDigest(pool []streamCell, refs map[string]service.CellResult) (string, error) {
	h := sha256.New()
	for _, c := range pool {
		data, err := json.Marshal(refs[c.label()])
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s\t%s\n", c.label(), data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
