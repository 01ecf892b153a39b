// Package replaycheck verifies DejaVu's accuracy requirement: a replayed
// execution must exhibit exactly the same behavior as the recorded one
// (§1 of the paper — "the accuracy requirement is absolute").
//
// It fingerprints an execution as an order-sensitive digest over the full
// event sequence (thread, method, pc, opcode per instruction), thread
// switches, and program output, and provides the record→replay
// orchestration used by integration tests and the evaluation harness.
package replaycheck

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"dejavu/internal/bytecode"
	"dejavu/internal/core"
	"dejavu/internal/trace"
	"dejavu/internal/vm"
)

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// Digest is the execution fingerprint: the VM folds it in place while
// it runs (see vm.Digest).
type Digest = vm.Digest

// NewDigest creates an empty digest.
func NewDigest() *Digest { return vm.NewDigest() }

// Options configures one record or replay run.
type Options struct {
	Seed       int64 // preemption seed (record only)
	PreemptMin int   // min yield points between preemptions (default 5)
	PreemptMax int   // max (default 60)
	NoPreempt  bool  // disable preemption entirely
	TimeBase   int64 // FakeTime base (default 1_000_000)
	TimeStep   int64 // FakeTime step (default 3); <0 selects JitterTime
	HeapBytes  int
	StackSlots int
	HostRand   int64
	Input      string
	MaxEvents  uint64
	KeepEvents int

	// ChunkBytes and Sync configure the StreamWriter used by RecordTo
	// (zero values keep the trace package defaults). Small ChunkBytes make
	// crash-injection tests tear at interesting offsets.
	ChunkBytes int
	Sync       trace.SyncPolicy

	// RotateEvents and RotateBytes set the segmented-journal rotation
	// policy for RecordJournal (zero = that policy off; both zero means a
	// single never-rotated segment).
	RotateEvents int
	RotateBytes  int64
	// MaxJournalBytes caps the journal's total sealed size for
	// RecordJournal (0 = unlimited); crossing it stops the recording with
	// an error wrapping trace.ErrJournalQuota.
	MaxJournalBytes int64

	// ProgressDeadline arms the replay watchdog (core.Config.
	// ProgressDeadline): replay that consumes no trace for this long
	// aborts with core.ErrStalled instead of hanging.
	ProgressDeadline time.Duration

	// TweakEngine mutates the engine config before construction (used by
	// the symmetry-ablation experiments).
	TweakEngine func(*core.Config)
	// TweakVM mutates the VM config (e.g. to install a MemHook).
	TweakVM func(*vm.Config)

	// Image, when set, is the loaded prog (vm.NewImage) every VM of the
	// run is built from, and its hash names the trace; callers that run
	// one program many times build it once. Its Program must be prog.
	// Without it each call loads prog once.
	Image *vm.Image
}

// withImage returns o with Image set to prog's image: o.Image when it is
// prog's, or a new one.
func (o Options) withImage(prog *bytecode.Program) (Options, error) {
	if o.Image == nil {
		img, err := vm.NewImage(prog)
		if err != nil {
			return o, err
		}
		o.Image = img
	} else if o.Image.Program() != prog {
		return o, fmt.Errorf("replaycheck: Options.Image was built from program %q, not %q", o.Image.Program().Name, prog.Name)
	}
	return o, nil
}

func (o Options) fill() Options {
	if o.PreemptMin == 0 {
		o.PreemptMin = 5
	}
	if o.PreemptMax == 0 {
		o.PreemptMax = 60
	}
	if o.TimeBase == 0 {
		o.TimeBase = 1_000_000
	}
	if o.TimeStep == 0 {
		o.TimeStep = 3
	}
	if o.MaxEvents == 0 {
		o.MaxEvents = 50_000_000
	}
	return o
}

func (o Options) timeSource() core.TimeSource {
	if o.TimeStep < 0 {
		return core.NewJitterTime(o.Seed, o.TimeBase)
	}
	return &core.FakeTime{Base: o.TimeBase, Step: o.TimeStep}
}

// Result captures one run.
type Result struct {
	Digest   *Digest
	Output   []byte
	Events   uint64
	Trace    []byte // record mode only
	VM       *vm.VM
	EngStats core.Stats
	RunErr   error

	// RunTime is the wall-clock duration of the VM.Run call alone,
	// excluding program assembly and VM construction (heap-image
	// allocation), for interpreter-throughput measurements.
	RunTime time.Duration
}

// newVM builds a VM for one run from o.Image, with a digest observing
// it. The digest keeps o.KeepEvents events; it is set before vm.Load,
// which decides from it whether the VM folds the digest in place.
func (o Options) newVM(eng *core.Engine) (*vm.VM, *Digest, error) {
	d := NewDigest()
	d.KeepEvents = o.KeepEvents
	cfg := vm.Config{
		HeapBytes:  o.HeapBytes,
		StackSlots: o.StackSlots,
		Engine:     eng,
		Observer:   d,
		MaxEvents:  o.MaxEvents,
		HostRand:   o.HostRand,
		IdleSleep:  1, // FakeTime advances by itself; don't stall tests
	}
	if o.TweakVM != nil {
		o.TweakVM(&cfg)
	}
	m, err := vm.Load(o.Image, cfg)
	return m, d, err
}

// runVM drives a constructed VM to completion. Tests swap in a Step loop
// (export_test.go) to hold Run and Step to the same results.
var runVM = (*vm.VM).Run

// Record executes prog in record mode and returns the run plus its trace.
func Record(prog *bytecode.Program, o Options) (*Result, error) {
	o, err := o.withImage(prog)
	if err != nil {
		return nil, err
	}
	return record(o, nil)
}

// RecordTo is Record with the trace streamed incrementally to dst instead
// of materialized in Result.Trace; the recording VM never holds the full
// trace in memory. The stream is finalized (flushed, end marker written)
// before RecordTo returns; dst itself is left open for the caller.
func RecordTo(prog *bytecode.Program, dst io.Writer, o Options) (*Result, error) {
	o, err := o.withImage(prog)
	if err != nil {
		return nil, err
	}
	sink, err := trace.NewStreamWriter(dst, o.Image.Hash(),
		trace.StreamOptions{ChunkBytes: o.ChunkBytes, Sync: o.Sync})
	if err != nil {
		return nil, err
	}
	res, err := record(o, sink)
	if cerr := sink.Close(); cerr != nil && err == nil {
		return res, fmt.Errorf("record trace stream: %w", cerr)
	}
	return res, err
}

// RecordSink is Record with events streamed into an arbitrary sink — e.g.
// a flight-recorder ring. If sink also implements vm.JournalSink (rotation
// and checkpoint capture), the VM drives it exactly like a segmented
// journal. The caller owns sealing or flushing the sink afterward.
func RecordSink(prog *bytecode.Program, sink trace.Sink, o Options) (*Result, error) {
	o, err := o.withImage(prog)
	if err != nil {
		return nil, err
	}
	if js, ok := sink.(vm.JournalSink); ok {
		tweak := o.TweakVM
		o.TweakVM = func(cfg *vm.Config) {
			if tweak != nil {
				tweak(cfg)
			}
			cfg.Journal = js
		}
	}
	return record(o, sink)
}

// record runs o.Image in record mode, logging into sink (nil keeps the
// trace in memory).
func record(o Options, sink trace.Sink) (*Result, error) {
	o = o.fill()
	ecfg := core.DefaultConfig(core.ModeRecord)
	ecfg.ProgHash = o.Image.Hash()
	ecfg.Time = o.timeSource()
	ecfg.TraceSink = sink
	if o.NoPreempt {
		ecfg.Preempt = core.NeverPreempt{}
	} else {
		ecfg.Preempt = core.NewSeededPreemptor(o.Seed, o.PreemptMin, o.PreemptMax)
	}
	if o.Input != "" {
		ecfg.Input = bytes.NewBufferString(o.Input)
	}
	if o.TweakEngine != nil {
		o.TweakEngine(&ecfg)
	}
	eng, err := core.NewEngine(ecfg)
	if err != nil {
		return nil, err
	}
	m, d, err := o.newVM(eng)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	runErr := runVM(m)
	runTime := time.Since(start)
	return &Result{
		Digest:   d,
		Output:   append([]byte(nil), m.Output()...),
		Events:   m.Events(),
		Trace:    eng.End(), // nil when streaming to a sink
		VM:       m,
		EngStats: eng.Stats(),
		RunErr:   runErr,
		RunTime:  runTime,
	}, nil
}

// Replay executes prog against a previously recorded trace held in memory:
// the flat DVT2 bytes Record returns, or a streamed DVS1 container (from
// RecordTo or a trace.RecoverStream salvage), which trace.NewReader loads
// whole and checksum-verifies before the run. ReplayFrom reads DVS1
// incrementally instead.
func Replay(prog *bytecode.Program, traceBytes []byte, o Options) (*Result, error) {
	o, err := o.withImage(prog)
	if err != nil {
		return nil, err
	}
	return replay(traceBytes, nil, o)
}

// ReplayFrom is Replay over a streaming trace container read incrementally
// from src (e.g. a file recorded by RecordTo), without materializing the
// trace in memory.
func ReplayFrom(prog *bytecode.Program, src io.Reader, o Options) (*Result, error) {
	o, err := o.withImage(prog)
	if err != nil {
		return nil, err
	}
	sr, err := trace.NewStreamReader(src, o.Image.Hash())
	if err != nil {
		return nil, err
	}
	return replay(nil, sr, o)
}

// replay runs o.Image against a trace from event zero.
func replay(traceBytes []byte, src trace.Source, o Options) (*Result, error) {
	m, d, err := newReplay(traceBytes, src, o)
	if err != nil {
		return nil, err
	}
	return runReplay(m, d), nil
}

// newReplay builds a replay VM of o.Image over a trace, with a digest
// observing it.
func newReplay(traceBytes []byte, src trace.Source, o Options) (*vm.VM, *Digest, error) {
	o = o.fill()
	ecfg := core.DefaultConfig(core.ModeReplay)
	ecfg.ProgHash = o.Image.Hash()
	ecfg.TraceIn = traceBytes
	ecfg.TraceSrc = src
	ecfg.ProgressDeadline = o.ProgressDeadline
	// Replay must not depend on any live source: poison them.
	ecfg.Time = &core.FakeTime{Base: -1 << 40, Step: 0}
	ecfg.Preempt = nil
	if o.TweakEngine != nil {
		o.TweakEngine(&ecfg)
	}
	eng, err := core.NewEngine(ecfg)
	if err != nil {
		return nil, nil, err
	}
	return o.newVM(eng)
}

// runReplay runs a replay VM built by newReplay (and possibly seeded) to
// completion.
func runReplay(m *vm.VM, d *Digest) *Result {
	start := time.Now()
	runErr := runVM(m)
	runTime := time.Since(start)
	return &Result{
		Digest:   d,
		Output:   append([]byte(nil), m.Output()...),
		Events:   m.Events(),
		VM:       m,
		EngStats: m.Engine().Stats(),
		RunErr:   runErr,
		RunTime:  runTime,
	}
}

// CheckReplay records prog, replays the trace, and verifies the replayed
// execution is identical: same digest, event count, output, final heap
// image, and per-thread logical clocks. It returns the two results for
// further inspection.
func CheckReplay(prog *bytecode.Program, o Options) (rec, rep *Result, err error) {
	if o, err = o.withImage(prog); err == nil {
		rec, err = Record(prog, o)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("record setup: %w", err)
	}
	if rec.RunErr != nil {
		return rec, nil, fmt.Errorf("record run: %w", rec.RunErr)
	}
	rep, err = Replay(prog, rec.Trace, o)
	if err != nil {
		return rec, nil, fmt.Errorf("replay setup: %w", err)
	}
	if rep.RunErr != nil {
		return rec, rep, fmt.Errorf("replay run: %w", rep.RunErr)
	}
	return rec, rep, CompareRuns(rec, rep)
}

// CompareRuns verifies two runs were behaviorally identical.
func CompareRuns(rec, rep *Result) error {
	if rec.Events != rep.Events {
		return fmt.Errorf("replaycheck: event counts differ: recorded %d, replayed %d", rec.Events, rep.Events)
	}
	if !bytes.Equal(rec.Output, rep.Output) {
		return fmt.Errorf("replaycheck: outputs differ:\nrecord: %q\nreplay: %q", rec.Output, rep.Output)
	}
	if rec.Digest.Sum() != rep.Digest.Sum() {
		return fmt.Errorf("replaycheck: digests differ (%x vs %x); recent record events: %v; recent replay events: %v",
			rec.Digest.Sum(), rep.Digest.Sum(), rec.Digest.Recent(), rep.Digest.Recent())
	}
	rh, rhu := HeapDigest(rec.VM)
	ph, phu := HeapDigest(rep.VM)
	if rh != ph || rhu != phu {
		return fmt.Errorf("replaycheck: final heap images differ (%x/%d vs %x/%d bytes)", rh, rhu, ph, phu)
	}
	recThreads := rec.VM.Scheduler().Threads()
	repThreads := rep.VM.Scheduler().Threads()
	if len(recThreads) != len(repThreads) {
		return fmt.Errorf("replaycheck: thread counts differ: %d vs %d", len(recThreads), len(repThreads))
	}
	for i := range recThreads {
		if recThreads[i].YieldCount != repThreads[i].YieldCount {
			return fmt.Errorf("replaycheck: thread %d logical clocks differ: %d vs %d",
				i, recThreads[i].YieldCount, repThreads[i].YieldCount)
		}
		if recThreads[i].EventCount != repThreads[i].EventCount {
			return fmt.Errorf("replaycheck: thread %d event counts differ: %d vs %d",
				i, recThreads[i].EventCount, repThreads[i].EventCount)
		}
	}
	return nil
}

// HeapDigest hashes the used portion of the VM's heap — the complete
// memory image, including the runtime's own mirrors and stacks.
func HeapDigest(m *vm.VM) (uint64, int) {
	h := m.Heap()
	used := h.Used()
	buf := make([]byte, used)
	if err := h.ReadBytes(h.ActiveBase(), buf); err != nil {
		return 0, used
	}
	sum := uint64(fnvOffset)
	for _, b := range buf {
		sum ^= uint64(b)
		sum *= fnvPrime
	}
	return sum, used
}

// RunOff executes prog with the engine in Off mode but the same seeded
// preemption, producing the same schedule as a Record run without any
// logging — the uninstrumented baseline for overhead measurements.
func RunOff(prog *bytecode.Program, o Options) (*Result, error) {
	o, err := o.withImage(prog)
	if err != nil {
		return nil, err
	}
	o = o.fill()
	ecfg := core.DefaultConfig(core.ModeOff)
	ecfg.Time = o.timeSource()
	if o.NoPreempt {
		ecfg.Preempt = core.NeverPreempt{}
	} else {
		ecfg.Preempt = core.NewSeededPreemptor(o.Seed, o.PreemptMin, o.PreemptMax)
	}
	if o.Input != "" {
		ecfg.Input = bytes.NewBufferString(o.Input)
	}
	if o.TweakEngine != nil {
		o.TweakEngine(&ecfg)
	}
	eng, err := core.NewEngine(ecfg)
	if err != nil {
		return nil, err
	}
	m, d, err := o.newVM(eng)
	if err != nil {
		return nil, err
	}
	runErr := runVM(m)
	return &Result{
		Digest:   d,
		Output:   append([]byte(nil), m.Output()...),
		Events:   m.Events(),
		VM:       m,
		EngStats: eng.Stats(),
		RunErr:   runErr,
	}, nil
}
