// Package kernels defines the shared vocabulary of the paper's benchmark
// implementations: the multithreaded execution modes of Section 5 and the
// program-pair contract that every kernel (MM, LU, CG, BT) satisfies.
//
// Each kernel sub-package builds address-faithful instruction-stream
// generators whose dynamic instruction mixes are engineered to match the
// Pin-profiled mixes of Table 1, for every execution mode the paper
// evaluates on that kernel.
package kernels

import "fmt"

// Mode is one of the paper's execution configurations.
type Mode uint8

const (
	// Serial is the single-threaded version, optimised with the loop
	// transformations of the paper (tiling, unrolling, layout tricks).
	Serial Mode = iota
	// TLPFine partitions work at element granularity: consecutive
	// elements go to different threads circularly (MM only).
	TLPFine
	// TLPCoarse partitions work at tile/row-block granularity, keeping
	// the threads in disjoint cache areas.
	TLPCoarse
	// TLPPfetch is pure speculative precomputation: one worker executes
	// everything while a helper thread prefetches the delinquent loads
	// one span ahead, regulated by barriers (§3.2).
	TLPPfetch
	// TLPPfetchWork is the hybrid: fine-grained work partitioning where
	// one thread additionally prefetches the next span.
	TLPPfetchWork

	// SerialPrefetch is the extension the paper's conclusion points at:
	// the serial worker with non-binding prefetch instructions embedded
	// inline ("embodying SPR in the working thread... combines low
	// number of µops with reduced cache misses and achieves best
	// performance"). Single-threaded; the sibling context stays idle.
	SerialPrefetch

	numModes
)

// NumModes is the number of defined modes.
const NumModes = int(numModes)

var modeNames = [NumModes]string{
	"serial", "tlp-fine", "tlp-coarse", "tlp-pfetch", "tlp-pfetch+work",
	"serial+pf",
}

func (m Mode) String() string {
	if int(m) < len(modeNames) {
		return modeNames[m]
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// ParseMode inverts Mode.String; empty means serial.
func ParseMode(name string) (Mode, error) {
	if name == "" {
		return Serial, nil
	}
	for i, n := range modeNames {
		if n == name {
			return Mode(i), nil
		}
	}
	return 0, fmt.Errorf("unknown mode %q", name)
}

// Valid reports whether m is a defined mode.
func (m Mode) Valid() bool { return m < numModes }

// AllModes returns every mode in paper order.
func AllModes() []Mode {
	out := make([]Mode, NumModes)
	for i := range out {
		out[i] = Mode(i)
	}
	return out
}

// WorkerTid and HelperTid fix the logical-processor roles: the main/worker
// thread binds to context 0, the sibling (second worker or prefetcher) to
// context 1, mirroring the paper's sched_setaffinity binding of two
// threads within one physical package.
const (
	WorkerTid = 0
	HelperTid = 1
)

// ErrUnsupportedMode reports a mode a kernel does not implement (the paper
// likewise implements only a subset per kernel, e.g. no hybrid scheme for
// LU).
type ErrUnsupportedMode struct {
	Kernel string
	Mode   Mode
}

func (e ErrUnsupportedMode) Error() string {
	return fmt.Sprintf("kernels: %s does not implement mode %v", e.Kernel, e.Mode)
}

// Tag ranges: each kernel tags its static load sites inside a dedicated
// range so delinquent-load profiles stay disjoint.
const (
	TagBaseMM = 1000
	TagBaseLU = 2000
	TagBaseCG = 3000
	TagBaseBT = 4000
)
