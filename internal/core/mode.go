// Package core implements the DejaVu engine: record and replay of
// non-deterministic events with symmetric instrumentation, following
// section 2 of the paper.
//
// The engine divides operations into deterministic ones (ordinary
// instruction execution — ignored in both modes) and non-deterministic
// ones (preemptive thread switches, wall-clock reads, native results,
// input, callbacks — recorded during record mode and regenerated during
// replay mode).
package core

import (
	"io"
	"math/rand"
	"sync/atomic"
	"time"

	"dejavu/internal/obs"
	"dejavu/internal/trace"
)

// Mode selects the engine behavior.
type Mode int

const (
	// ModeOff runs without instrumentation effects (the "precise" native
	// execution DejaVu's overhead is compared against).
	ModeOff Mode = iota
	// ModeRecord captures non-deterministic results into a trace.
	ModeRecord
	// ModeReplay substitutes recorded results for non-deterministic
	// operations, reproducing the recorded execution exactly.
	ModeReplay
)

func (m Mode) String() string {
	switch m {
	case ModeOff:
		return "off"
	case ModeRecord:
		return "record"
	case ModeReplay:
		return "replay"
	default:
		return "mode(?)"
	}
}

// TimeSource supplies wall-clock values (milliseconds). Reading it is the
// archetypal non-deterministic event (the paper's Date() in Fig. 1 C/D).
type TimeSource interface {
	NowMillis() int64
}

// RealTime reads the host wall clock.
type RealTime struct{}

// NowMillis implements TimeSource.
func (RealTime) NowMillis() int64 { return time.Now().UnixMilli() }

// FakeTime is a deterministic time source for experiments that must be
// reproducible end to end: it starts at Base and advances Step per read.
// From the VM's point of view it is still non-deterministic state (the
// program cannot predict it), so it is recorded like any wall clock.
type FakeTime struct {
	Base int64
	Step int64
	n    int64
}

// NowMillis implements TimeSource.
func (f *FakeTime) NowMillis() int64 {
	v := f.Base + f.Step*f.n
	f.n++
	return v
}

// JitterTime is a pseudo-random walk time source: like a real clock, the
// interval between reads varies, driving timed-wait races differently from
// run to run (seeded so experiments can name their runs).
type JitterTime struct {
	rng *rand.Rand
	now int64
}

// NewJitterTime creates a JitterTime starting at base.
func NewJitterTime(seed, base int64) *JitterTime {
	return &JitterTime{rng: rand.New(rand.NewSource(seed)), now: base}
}

// NowMillis implements TimeSource.
func (j *JitterTime) NowMillis() int64 {
	j.now += j.rng.Int63n(7)
	return j.now
}

// Preemptor models the timer interrupt: Pending reports (and clears)
// whether the preemptive-hardware bit has been set since the last check.
// It is consulted only at yield points, and only in record/off modes —
// replay ignores it entirely (Fig. 2B).
type Preemptor interface {
	Pending() bool
}

// NeverPreempt disables preemption; all remaining thread switches are
// deterministic (the property tested by E8's no-preemption invariant).
type NeverPreempt struct{}

// Pending implements Preemptor.
func (NeverPreempt) Pending() bool { return false }

// HostTimer sets an atomic flag from a real timer goroutine, exactly like
// Jalapeño's periodic timer interrupt setting preemptiveHardwareBit: the
// interpreted program observes it at an unpredictable yield point.
type HostTimer struct {
	flag atomic.Bool
	stop chan struct{}
}

// StartHostTimer launches the timer goroutine.
func StartHostTimer(interval time.Duration) *HostTimer {
	h := &HostTimer{stop: make(chan struct{})}
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				h.flag.Store(true)
			case <-h.stop:
				return
			}
		}
	}()
	return h
}

// Pending implements Preemptor.
func (h *HostTimer) Pending() bool { return h.flag.Swap(false) }

// Stop terminates the timer goroutine.
func (h *HostTimer) Stop() { close(h.stop) }

// SeededPreemptor fires after a pseudo-random number of yield points.
// It plays the role of the asynchronous timer in reproducible experiments:
// arbitrary with respect to program state (which is all the paper's
// mechanism requires of the interrupt), yet nameable by seed, so a test
// can record under seed s and verify replay without rerunning the timer.
type SeededPreemptor struct {
	rng      *rand.Rand
	min, max int
	left     int
}

// NewSeededPreemptor fires every [min,max] yield points, pseudo-randomly.
func NewSeededPreemptor(seed int64, min, max int) *SeededPreemptor {
	if min < 1 {
		min = 1
	}
	if max < min {
		max = min
	}
	p := &SeededPreemptor{rng: rand.New(rand.NewSource(seed)), min: min, max: max}
	p.reload()
	return p
}

func (p *SeededPreemptor) reload() {
	p.left = p.min + p.rng.Intn(p.max-p.min+1)
}

// Pending implements Preemptor.
func (p *SeededPreemptor) Pending() bool {
	p.left--
	if p.left <= 0 {
		p.reload()
		return true
	}
	return false
}

// ScriptedPreemptor fires at an exact, pre-computed set of yield points.
// The trace minimizer uses it to re-execute a recording with a *subset* of
// its original preemption switches: record mode consults Pending exactly
// once per live yield point, so firing at the n-th consultation reproduces
// the n-th global yield position of the original schedule. Everything else
// held equal (time source, host randomness, input), the schedule — and
// hence the execution — is a pure function of the fire set.
type ScriptedPreemptor struct {
	fire map[uint64]bool
	n    uint64
}

// NewScriptedPreemptor fires at the given global yield positions
// (1-based: position k means the k-th Pending consultation fires).
func NewScriptedPreemptor(positions []uint64) *ScriptedPreemptor {
	p := &ScriptedPreemptor{fire: make(map[uint64]bool, len(positions))}
	for _, v := range positions {
		p.fire[v] = true
	}
	return p
}

// Pending implements Preemptor.
func (p *ScriptedPreemptor) Pending() bool {
	p.n++
	return p.fire[p.n]
}

// Consulted returns how many yield points have consulted this preemptor.
func (p *ScriptedPreemptor) Consulted() uint64 { return p.n }

// Host is the VM surface the engine's symmetric side effects run against:
// instrumentation-owned allocation and stack growth (§2.4).
type Host interface {
	// AllocCaptureBuffer allocates the engine's capture buffer in the VM
	// heap, so instrumentation allocation is visible to — and symmetric
	// for — the garbage collector.
	AllocCaptureBuffer(bytes int) error
	// EnsureStackHeadroom eagerly grows the current thread's activation
	// stack when fewer than slots are free, equalizing stack-overflow
	// points between modes.
	EnsureStackHeadroom(slots int) error
}

// Config assembles an engine.
type Config struct {
	Mode     Mode
	Time     TimeSource
	Preempt  Preemptor
	TraceIn  []byte    // replay input, either container (required in ModeReplay unless TraceSrc is set)
	ProgHash uint64    // program identity check
	Input    io.Reader // environment input for the readline native

	// TraceSink, when set, receives record-mode events instead of the
	// default in-memory Writer — e.g. a trace.StreamWriter over a file, so
	// the trace never lives in memory. The caller owns closing it.
	TraceSink trace.Sink
	// TraceSrc, when set, supplies replay-mode events instead of decoding
	// TraceIn — e.g. a trace.StreamReader. Streaming sources are not
	// seekable, so engine snapshots are unavailable over them.
	TraceSrc trace.Source

	// Symmetry switches. All default to on; the E9 ablations turn them
	// off one at a time to demonstrate the resulting divergence.
	LiveClockGuard bool // exclude instrumentation yields from the logical clock
	SymmetricAlloc bool // allocate the capture buffer in both modes
	EagerStackGrow bool // grow stacks to one heuristic threshold in both modes

	// CaptureBufBytes sizes the symmetric capture buffer.
	CaptureBufBytes int

	// WarmupIO performs the paper's I/O warm-up during Begin: write a
	// temporary file and immediately read it back, in BOTH modes, so the
	// input and output paths are exercised identically whether the engine
	// will be writing (record) or reading (replay) — §2.4 "Symmetry in
	// Loading and Compilation". In Go nothing is lazily compiled, so this
	// is behavioural fidelity rather than a correctness requirement; it is
	// on by default and observable through Stats.
	WarmupIO bool

	// InstrYieldsRecord/Replay simulate the instrumentation's own yield
	// points per switch event. They intentionally differ: record-mode and
	// replay-mode instrumentation do different work, which is exactly why
	// the liveclock guard exists.
	InstrYieldsRecord int
	InstrYieldsReplay int

	// PartialTrace marks the replay input as a salvaged prefix of a torn
	// recording (trace.RecoverStream output). Replay then stops with
	// ErrPartialTrace the moment the salvaged switch stream is exhausted:
	// past the last recorded switch the engine can no longer prove the
	// schedule matches the recording, so continuing cooperatively could
	// diverge silently. Complete traces leave this off — for them an
	// exhausted switch stream just means the recording held no further
	// preemptions.
	PartialTrace bool

	// ProgressDeadline arms the replay watchdog: if replay goes this long
	// without consuming any trace (no switch, clock, native, input, or
	// callback event), the engine aborts with a *StalledError (errors.Is
	// ErrStalled) carrying the last thread and logical-clock position —
	// instead of spinning forever on a livelocked schedule, a hung native
	// stub, or a corrupt switch stream. Zero disables the watchdog; record
	// and off modes ignore it (a recording that makes no progress is the
	// program's own behavior, not a replay fault).
	ProgressDeadline time.Duration

	// Obs, when set, receives the engine's operational metrics (yield
	// points, switches, preemptions, stall checks, …). Metrics live outside
	// the logical clock: they are host-side atomics the program can never
	// observe, are excluded from EngineSnapshot, and therefore cannot
	// perturb replay — the same discipline the liveclock guard applies to
	// instrumentation yields. Nil disables collection at zero cost (the
	// engine's metric handles become nil-safe no-ops).
	Obs *obs.Registry

	// PreflightAnalysis asks embedders to run the static determinism
	// analyses (internal/analysis) over the program before record mode
	// starts, refusing to record when they report findings. The engine
	// itself never sees the program, so the gate is honored by the layer
	// that builds the VM (see cli.BuildEngine); the flag lives here so one
	// Config names the complete record contract.
	PreflightAnalysis bool
}

// DefaultConfig returns a Config with all symmetry mechanisms enabled.
func DefaultConfig(mode Mode) Config {
	return Config{
		Mode:              mode,
		Time:              RealTime{},
		Preempt:           NeverPreempt{},
		WarmupIO:          true,
		LiveClockGuard:    true,
		SymmetricAlloc:    true,
		EagerStackGrow:    true,
		CaptureBufBytes:   4096,
		InstrYieldsRecord: 2,
		InstrYieldsReplay: 3,
	}
}
