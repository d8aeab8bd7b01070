package cluster

import (
	"context"
	"time"

	"smtexplore/internal/client"
	"smtexplore/internal/service"
)

// Worker is the coordinator's remote-executor seam: the narrow slice of
// one smtd's API the cluster needs. The production implementation is
// Remote (HTTP against a worker daemon); tests swap in in-process
// fakes, which is what keeps steal/migration logic unit-testable
// without sockets.
type Worker interface {
	// Name identifies the worker on the hash ring.
	Name() string
	// Addr is the worker's host:port (diagnostics and topology views).
	Addr() string
	// Submit enqueues a batch remotely and returns the remote job ID.
	// idemKey guards against double-enqueue when a 202 response is lost.
	Submit(ctx context.Context, req service.SubmitRequest, idemKey string) (string, error)
	// Status fetches a remote job's progress view.
	Status(ctx context.Context, id string) (service.JobStatus, error)
	// Result fetches a terminal remote job's full results.
	Result(ctx context.Context, id string) (service.JobResult, error)
	// Cancel aborts a remote job (idempotent server-side).
	Cancel(ctx context.Context, id string) error
	// Health probes liveness (nil on a serving worker).
	Health(ctx context.Context) error
	// Stats fetches the worker's structured metrics snapshot — the
	// queue-wait and checkpoint telemetry behind stealing and the
	// cluster-wide metric aggregates.
	Stats(ctx context.Context) (service.Metrics, error)
}

// Remote is the HTTP Worker: the existing single-daemon job API is the
// cluster's wire protocol, so a worker smtd needs no cluster-specific
// endpoints at all.
type Remote struct {
	name string
	addr string
	api  *client.Client
}

// NewRemote builds the HTTP client for the worker at addr (host:port).
// name defaults to addr; give explicit names when addresses are
// ephemeral (port-0 tests) but identity must survive restarts.
func NewRemote(name, addr string) *Remote {
	if name == "" {
		name = addr
	}
	// One attempt per call: the coordinator owns retries, migration and
	// the health loop. Requests are small JSON exchanges; anything slower
	// than the timeout is the health loop's problem, not a reason to hold
	// a submit hostage.
	return &Remote{name: name, addr: addr, api: client.New(addr, client.Policy{Timeout: 10 * time.Second})}
}

func (r *Remote) Name() string { return r.name }
func (r *Remote) Addr() string { return r.addr }

// Submit forwards a batch. A well-formed 4xx comes back as a
// *client.RefusedError: the worker is healthy and said no, so the
// coordinator must not declare it dead.
func (r *Remote) Submit(ctx context.Context, req service.SubmitRequest, idemKey string) (string, error) {
	st, err := r.api.Submit(ctx, req, idemKey)
	return st.ID, err
}

func (r *Remote) Status(ctx context.Context, id string) (service.JobStatus, error) {
	return r.api.Status(ctx, id)
}

func (r *Remote) Result(ctx context.Context, id string) (service.JobResult, error) {
	return r.api.Result(ctx, id)
}

func (r *Remote) Cancel(ctx context.Context, id string) error {
	_, err := r.api.Cancel(ctx, id)
	return err
}

// Health treats a draining worker (503) like a dead one for routing:
// its in-flight jobs will park checkpoints and it must not get new work.
func (r *Remote) Health(ctx context.Context) error { return r.api.Health(ctx) }

func (r *Remote) Stats(ctx context.Context) (service.Metrics, error) { return r.api.Stats(ctx) }
