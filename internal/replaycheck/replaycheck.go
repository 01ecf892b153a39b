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

// Digest is a vm.Observer folding every execution event into an FNV-1a
// style accumulator at word granularity (one xor and one multiply per
// event — the digest runs on every step of every measured execution, so
// the byte-at-a-time fold was the single hottest record-path cost). Two
// executions with equal digests executed the same events in the same
// order with the same output. The digest is a per-process comparison
// value, never persisted as a golden constant, so the fold width is
// free to change.
type Digest struct {
	sum      uint64
	events   uint64
	switches uint64
	output   []byte

	// KeepEvents > 0 retains the most recent events for divergence
	// diagnosis.
	KeepEvents int
	recent     []string
}

// NewDigest creates an empty digest.
func NewDigest() *Digest { return &Digest{sum: fnvOffset} }

func (d *Digest) fold(v uint64) {
	// Word-granularity FNV-1a: xor-then-multiply is bijective in v for a
	// fixed sum (the prime is odd), so any single-event difference
	// changes the digest.
	d.sum = (d.sum ^ v) * fnvPrime
}

// OnStep implements vm.Observer.
func (d *Digest) OnStep(threadID, methodID, pc int, op bytecode.Opcode) {
	d.events++
	d.fold(uint64(threadID)<<40 | uint64(methodID)<<24 | uint64(pc)<<8 | uint64(op))
	if d.KeepEvents > 0 {
		d.recent = append(d.recent, fmt.Sprintf("t%d m%d pc%d %v", threadID, methodID, pc, op))
		if len(d.recent) > d.KeepEvents {
			d.recent = d.recent[1:]
		}
	}
}

// OnOutput implements vm.Observer.
func (d *Digest) OnOutput(b []byte) {
	for _, c := range b {
		d.fold(uint64(c) | 1<<63)
	}
	d.output = append(d.output, b...)
}

// OnSwitch implements vm.Observer.
func (d *Digest) OnSwitch(to int) {
	d.switches++
	d.fold(uint64(to) | 1<<62)
}

// Sum returns the digest value.
func (d *Digest) Sum() uint64 { return d.sum }

// Events returns the instruction count observed.
func (d *Digest) Events() uint64 { return d.events }

// Switches returns the dispatch count observed.
func (d *Digest) Switches() uint64 { return d.switches }

// Output returns the accumulated program output.
func (d *Digest) Output() []byte { return d.output }

// Recent returns the retained event tail.
func (d *Digest) Recent() []string { return d.recent }

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

func (o Options) newVM(prog *bytecode.Program, eng *core.Engine, d *Digest) (*vm.VM, error) {
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
	return vm.New(prog, cfg)
}

// runVM drives a constructed VM to completion. Tests swap in a Step loop
// (export_test.go) to hold Run and Step to the same results.
var runVM = (*vm.VM).Run

// Record executes prog in record mode and returns the run plus its trace.
func Record(prog *bytecode.Program, o Options) (*Result, error) {
	return record(prog, o, nil)
}

// RecordTo is Record with the trace streamed incrementally to dst instead
// of materialized in Result.Trace; the recording VM never holds the full
// trace in memory. The stream is finalized (flushed, end marker written)
// before RecordTo returns; dst itself is left open for the caller.
func RecordTo(prog *bytecode.Program, dst io.Writer, o Options) (*Result, error) {
	sink, err := trace.NewStreamWriter(dst, vm.ProgramHash(prog),
		trace.StreamOptions{ChunkBytes: o.ChunkBytes, Sync: o.Sync})
	if err != nil {
		return nil, err
	}
	res, err := record(prog, o, sink)
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
	if js, ok := sink.(vm.JournalSink); ok {
		tweak := o.TweakVM
		o.TweakVM = func(cfg *vm.Config) {
			if tweak != nil {
				tweak(cfg)
			}
			cfg.Journal = js
		}
	}
	return record(prog, o, sink)
}

func record(prog *bytecode.Program, o Options, sink trace.Sink) (*Result, error) {
	o = o.fill()
	ecfg := core.DefaultConfig(core.ModeRecord)
	ecfg.ProgHash = vm.ProgramHash(prog)
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
	d := NewDigest()
	d.KeepEvents = o.KeepEvents
	m, err := o.newVM(prog, eng, d)
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
	return replay(prog, traceBytes, nil, o)
}

// ReplayFrom is Replay over a streaming trace container read incrementally
// from src (e.g. a file recorded by RecordTo), without materializing the
// trace in memory.
func ReplayFrom(prog *bytecode.Program, src io.Reader, o Options) (*Result, error) {
	sr, err := trace.NewStreamReader(src, vm.ProgramHash(prog))
	if err != nil {
		return nil, err
	}
	return replay(prog, nil, sr, o)
}

// replay runs prog against a trace from event zero.
func replay(prog *bytecode.Program, traceBytes []byte, src trace.Source, o Options) (*Result, error) {
	m, d, err := newReplay(prog, traceBytes, src, o)
	if err != nil {
		return nil, err
	}
	return runReplay(m, d), nil
}

// newReplay builds a replay VM over a trace, with a digest observing it.
func newReplay(prog *bytecode.Program, traceBytes []byte, src trace.Source, o Options) (*vm.VM, *Digest, error) {
	o = o.fill()
	ecfg := core.DefaultConfig(core.ModeReplay)
	ecfg.ProgHash = vm.ProgramHash(prog)
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
	d := NewDigest()
	d.KeepEvents = o.KeepEvents
	m, err := o.newVM(prog, eng, d)
	if err != nil {
		return nil, nil, err
	}
	return m, d, nil
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
	rec, err = Record(prog, o)
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
	d := NewDigest()
	m, err := o.newVM(prog, eng, d)
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
