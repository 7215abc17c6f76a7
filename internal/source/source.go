// Package source defines the pluggable sensing backends of the monitoring
// pipeline — the paper's swappable Sensor modules. A Source produces one
// Sample per round; the pipeline's Sensor is oblivious to what kind of
// backend it samples:
//
//	hpc     per-PID hardware-counter deltas (the original Sensor path);
//	rapl    machine-level package/DRAM energy from the simulated RAPL MSRs;
//	procfs  per-PID CPU-time shares, the fallback when counters are
//	        unavailable (containers, locked-down perf_event_paranoid);
//	util    a coarse machine-level power proxy from /proc/stat utilisation.
//
// Sources play one of two roles. An attribution source samples every attached
// process and yields either counter deltas or attribution weights; a cgroup's
// or a VM's power is always the sum of its member processes' estimates. A
// machine-total source yields one measured machine power. A sensing Mode
// pairs an attribution source with a machine-total source — e.g. ModeBlended
// attributes the RAPL package total across processes keyed by their counter
// activity, the Kepler-style split.
package source

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"powerapi/internal/hpc"
	"powerapi/internal/target"
)

// TargetSample is one attached process within a Sample.
type TargetSample struct {
	// Target identifies the monitored process.
	Target target.Target `json:"target"`
	// Slot is the dense round-slot index the pipeline assigned to the process
	// at attach time, encoded as slot+1 so the zero value means "no slot"
	// (the sensor stamps it, and drops a sample of a process it never
	// attached). It lets the aggregator accumulate into slice-backed sparse
	// sets instead of rebuilding maps every round. Sources leave it alone.
	Slot int32 `json:"-"`
	// Deltas are the hardware-counter increments since the previous sample
	// (counter-backed sources; zero otherwise). The dense vector form keeps
	// per-round sampling allocation-free.
	Deltas hpc.CountsVec `json:"-"`
	// Weight is the attribution weight of the target for the window
	// (share-based sources; the pipeline normalizes weights per round).
	Weight float64 `json:"weight,omitempty"`
}

// targetSlicePool recycles the per-round Targets slices that sources hand
// over to the pipeline. The pipeline returns a round's slice through
// PutTargetSlice once the formula stage has consumed it, so steady-state
// rounds allocate no sample batches at all.
var targetSlicePool = sync.Pool{New: func() any { return new([]TargetSample) }}

// GetTargetSlice returns an empty slice with at least the given capacity,
// reusing a pooled backing array when one is available.
func GetTargetSlice(capacity int) []TargetSample {
	s := *targetSlicePool.Get().(*[]TargetSample)
	if cap(s) < capacity {
		return make([]TargetSample, 0, capacity)
	}
	return s[:0]
}

// PutTargetSlice hands a sample slice back for reuse. The caller must not
// touch the slice afterwards.
func PutTargetSlice(s []TargetSample) {
	if cap(s) == 0 {
		return
	}
	s = s[:0]
	targetSlicePool.Put(&s)
}

// Sample is one sampling round's output from a Source.
type Sample struct {
	// FrequencyMHz is the dominant core frequency observed during the round
	// (0 when the source cannot tell).
	FrequencyMHz int
	// MeasuredWatts is the machine-level power measured over the window.
	// Only meaningful when HasMeasured is true.
	MeasuredWatts float64
	// HasMeasured reports whether MeasuredWatts carries a measurement.
	// Machine-scope sources leave it false when no simulated time has
	// elapsed since the previous sample (a zero-length window has no
	// well-defined power).
	HasMeasured bool
	// Targets holds one entry per attached process (attribution sources).
	// The slice is handed over to the caller: the source must not reuse it
	// for a later Sample, because the pipeline ships it downstream as part of
	// an in-flight message.
	Targets []TargetSample
}

// Source is a pluggable sensing backend. Implementations must be safe for
// use from a single sampling goroutine; Open/Close bracket the lifetime.
type Source interface {
	// Name identifies the backend ("hpc", "rapl", "procfs", …).
	Name() string
	// Open prepares the source for the given monitoring targets
	// (machine-scope sources ignore them).
	Open(targets []target.Target) error
	// Sample reads one round of measurements covering the window since the
	// previous Sample (or since Open). A source may return both a usable
	// Sample and a non-nil error describing partial per-target failures.
	Sample(ctx context.Context) (Sample, error)
	// Close releases the source's resources. Further calls fail.
	Close() error
}

// Dynamic is implemented by attribution sources whose process set can change
// after Open, which is how the pipeline serves attach/detach without
// reopening the backend. The pipeline only ever adds process targets.
type Dynamic interface {
	Source
	// Add starts sampling a process. Adding a process twice is idempotent;
	// any other kind of target is rejected.
	Add(t target.Target) error
	// Remove stops sampling a process; removing an unknown target fails.
	Remove(t target.Target) error
}

// Mode selects how the pipeline combines sources into per-PID power.
type Mode int

// Sensing modes.
const (
	// ModeHPC is the paper's original path: per-PID counter deltas run
	// through the learned formula; the machine total is idle + sum.
	ModeHPC Mode = iota + 1
	// ModeProcfs is the no-counters fallback: a coarse utilisation-based
	// machine estimate attributed by per-PID CPU-time share.
	ModeProcfs
	// ModeRAPL measures the machine total with the RAPL package+DRAM
	// domains and attributes it by per-PID CPU-time share.
	ModeRAPL
	// ModeBlended measures the total with the RAPL package domain and
	// attributes it by per-PID counter activity through the learned formula
	// — the Kepler-style ratio split.
	ModeBlended
	// ModeDelegated is the guest side of the VM bridge: the machine total is
	// whatever the host-side PowerAPI instance delegated for this VM (a
	// vmbridge.DelegatedSource), attributed across the guest's processes by
	// their counter activity through the learned formula. The guest's
	// per-process estimates therefore sum exactly to the host-delegated VM
	// power — the nested instance conserves the host's attribution.
	ModeDelegated
)

// Modes lists every sensing mode in declaration order.
func Modes() []Mode {
	return []Mode{ModeHPC, ModeProcfs, ModeRAPL, ModeBlended, ModeDelegated}
}

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeHPC:
		return "hpc"
	case ModeProcfs:
		return "procfs"
	case ModeRAPL:
		return "rapl"
	case ModeBlended:
		return "blended"
	case ModeDelegated:
		return "delegated"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Valid reports whether m is a known sensing mode.
func (m Mode) Valid() bool {
	switch m {
	case ModeHPC, ModeProcfs, ModeRAPL, ModeBlended, ModeDelegated:
		return true
	default:
		return false
	}
}

// Attributed reports whether the mode distributes a measured machine total
// across PIDs by normalized weights (every mode except the formula-driven
// ModeHPC).
func (m Mode) Attributed() bool { return m.Valid() && m != ModeHPC }

// ParseMode resolves a mode name such as "rapl" (case-insensitive).
func ParseMode(s string) (Mode, error) {
	for _, m := range Modes() {
		if strings.EqualFold(s, m.String()) {
			return m, nil
		}
	}
	names := make([]string, 0, len(Modes()))
	for _, m := range Modes() {
		names = append(names, m.String())
	}
	return 0, fmt.Errorf("source: unknown mode %q (want one of %s)", s, strings.Join(names, "|"))
}
