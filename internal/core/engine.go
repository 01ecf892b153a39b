package core

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"dejavu/internal/obs"
	"dejavu/internal/threads"
	"dejavu/internal/trace"
)

// Stats counts the engine's interactions for the evaluation harness.
type Stats struct {
	Switches    uint64
	YieldPoints uint64
	InstrYields uint64 // yield points executed by instrumentation (clock paused)
	ClockReads  uint64
	NativeCalls uint64
	InputReads  uint64
	Callbacks   uint64
	WarmupBytes uint64 // bytes written+read by the §2.4 I/O warm-up
}

// Engine is the DejaVu record/replay engine. One engine instance serves
// one VM execution.
type Engine struct {
	cfg  Config
	mode Mode
	host Host

	w     trace.Sink
	r     trace.Source
	input *bufio.Reader

	// Fig. 2 state.
	liveClock  bool
	nyp        uint64 // record: yields since last switch; replay: countdown
	hasPending bool   // replay: a recorded switch remains
	switchBit  bool   // threadswitchbit

	inInstr bool // guard against recursive instrumentation simulation

	// Logical-clock position for diagnostics: the thread most recently
	// dispatched or seen at a yield point (-1 before the first).
	lastThread int

	// Watchdog state (replay with Config.ProgressDeadline): the wall-clock
	// time of the last trace consumption. Replay that yields without ever
	// consuming trace — a livelocked schedule, a hung native stub, a corrupt
	// switch stream — stops advancing this and trips the deadline.
	//
	// The wall-clock read is amortized per no-progress streak: idleYields
	// counts yield points since the last trace consumption, and nextStall is
	// the streak length at which the next time.Since check runs. The
	// threshold starts low (stallCheckFirst) so a replay that stalls
	// immediately — a tiny workload may execute fewer than 256 yields total —
	// still trips the deadline promptly, then ramps geometrically toward a
	// steady-state check every 256 idle yields.
	lastProgress time.Time
	idleYields   uint64
	nextStall    uint64

	err   error // sticky divergence/IO error
	stats Stats
	m     engineMetrics
}

// engineMetrics holds the engine's obs series. All fields are nil-safe
// no-ops when Config.Obs is nil; none of them is ever read by the engine
// or serialized into EngineSnapshot, which is what keeps observation out
// of the logical clock (the obs package doc states the invariant).
type engineMetrics struct {
	yieldPoints *obs.Counter
	instrYields *obs.Counter
	switches    *obs.Counter
	preemptRec  *obs.Counter // preemptions emitted while recording
	preemptRep  *obs.Counter // recorded preemptions consumed during replay
	stallChecks *obs.Counter // wall-clock watchdog checks actually performed
	clockReads  *obs.Counter
	nativeCalls *obs.Counter
	traceBytes  *obs.Gauge // bytes emitted by the record-mode sink
}

func newEngineMetrics(reg *obs.Registry) engineMetrics {
	if reg == nil {
		return engineMetrics{}
	}
	return engineMetrics{
		yieldPoints: reg.Counter("dv_engine_yield_points_total"),
		instrYields: reg.Counter("dv_engine_instr_yields_total"),
		switches:    reg.Counter("dv_engine_switches_total"),
		preemptRec:  reg.Counter("dv_engine_preemptions_emitted_total"),
		preemptRep:  reg.Counter("dv_engine_preemptions_consumed_total"),
		stallChecks: reg.Counter("dv_engine_stall_checks_total"),
		clockReads:  reg.Counter("dv_engine_clock_reads_total"),
		nativeCalls: reg.Counter("dv_engine_native_calls_total"),
		traceBytes:  reg.Gauge("dv_engine_trace_bytes"),
	}
}

// ErrNotReplaying is returned by replay-only queries in other modes.
var ErrNotReplaying = errors.New("core: engine is not in replay mode")

// ErrNotSeekable is returned by Snapshot/Restore when the engine replays
// from a streaming source, which cannot rewind.
var ErrNotSeekable = errors.New("core: trace source is not seekable (streaming replay)")

// ErrStalled is the sentinel every watchdog abort unwraps to: replay made
// no logical-clock progress within Config.ProgressDeadline. The concrete
// error is a *StalledError carrying the stall position.
var ErrStalled = errors.New("core: replay stalled (no trace progress within deadline)")

// StalledError is the watchdog's structured abort: where replay was when
// it stopped consuming the trace. It unwraps to ErrStalled.
type StalledError struct {
	Thread   int           // thread at the stall point (-1 unknown)
	Yields   uint64        // yield points executed (logical-clock position)
	Events   int           // data events consumed before the stall
	Deadline time.Duration // the deadline that fired
}

func (s *StalledError) Error() string {
	return fmt.Sprintf("core: replay stalled: no trace progress within %v (thread %d, %d yield points, %d events replayed)",
		s.Deadline, s.Thread, s.Yields, s.Events)
}

// Unwrap makes errors.Is(err, ErrStalled) hold.
func (s *StalledError) Unwrap() error { return ErrStalled }

// ErrPartialTrace is the sticky engine error raised when replay of a
// salvaged trace (Config.PartialTrace) exhausts the salvaged switch stream:
// the recording held more preemptions than survived the crash, so the
// engine stops at the last point it can prove faithful rather than
// continuing cooperatively and diverging silently. It unwraps to
// io.ErrUnexpectedEOF, the same condition a torn data stream raises, so
// one errors.Is check recognizes every partial-replay stop.
var ErrPartialTrace = fmt.Errorf("core: salvaged trace exhausted mid-replay: %w", io.ErrUnexpectedEOF)

// NewEngine builds an engine from cfg.
func NewEngine(cfg Config) (*Engine, error) {
	e := &Engine{cfg: cfg, mode: cfg.Mode, liveClock: true, lastThread: -1,
		m: newEngineMetrics(cfg.Obs)}
	if cfg.Time == nil {
		cfg.Time = RealTime{}
		e.cfg.Time = cfg.Time
	}
	switch cfg.Mode {
	case ModeOff:
	case ModeRecord:
		if cfg.Preempt == nil {
			return nil, errors.New("core: record mode requires a Preemptor")
		}
		if cfg.TraceSink != nil {
			e.w = cfg.TraceSink
		} else {
			e.w = trace.NewWriter(cfg.ProgHash)
		}
	case ModeReplay:
		if cfg.TraceSrc != nil {
			e.r = cfg.TraceSrc
		} else {
			r, err := trace.NewReader(cfg.TraceIn, cfg.ProgHash)
			if err != nil {
				return nil, err
			}
			e.r = r
		}
	default:
		return nil, fmt.Errorf("core: unknown mode %d", cfg.Mode)
	}
	if cfg.Input != nil {
		e.input = bufio.NewReader(cfg.Input)
	}
	return e, nil
}

// Mode returns the engine mode.
func (e *Engine) Mode() Mode { return e.mode }

// Err returns the sticky replay error, if any.
func (e *Engine) Err() error { return e.err }

// Stats returns interaction counts.
func (e *Engine) Stats() Stats { return e.stats }

// TraceStats returns the record-mode trace statistics.
func (e *Engine) TraceStats() (trace.Stats, bool) {
	if e.w == nil {
		return trace.Stats{}, false
	}
	return e.w.Stats(), true
}

func (e *Engine) fail(err error) {
	if e.err == nil {
		// The trace layer only knows event ordinals; stamp divergence
		// reports with the logical-clock position the engine tracks.
		var div *trace.DivergenceError
		if errors.As(err, &div) && div.Thread < 0 {
			div.Thread = e.lastThread
			div.Yields = e.stats.YieldPoints
		}
		e.err = err
	}
}

// NotePosition records the thread the VM is about to run, so divergence
// and stall reports carry a position even when the failure happens between
// yield points (e.g. inside a native bracket).
func (e *Engine) NotePosition(threadID int) { e.lastThread = threadID }

// stallCheckFirst is the no-progress streak length at which the watchdog
// performs its first wall-clock check. It must be small: a tiny workload
// can stall with single-digit yields on the clock, and the old
// global-yield-count gate (check only when stats.YieldPoints was a
// multiple of 256) could postpone the first check arbitrarily — or, for a
// program with fewer than 256 total yields that never hit a multiple,
// forever.
const stallCheckFirst = 16

// markProgress timestamps trace consumption for the watchdog and resets
// the no-progress streak.
func (e *Engine) markProgress() {
	if e.cfg.ProgressDeadline > 0 {
		e.lastProgress = time.Now()
		e.idleYields = 0
		e.nextStall = stallCheckFirst
	}
}

// checkStall trips the watchdog when replay has gone ProgressDeadline
// without consuming any trace. Called from the yield-point hot path, so
// the wall-clock read is amortized: the first check of a streak happens
// after stallCheckFirst idle yields, then the threshold doubles up to a
// steady-state check every 256 idle yields. A stall is therefore detected
// within roughly one deadline plus 256 yield periods in the worst case,
// and within a few yield periods for programs that stall early.
func (e *Engine) checkStall(t *threads.Thread) bool {
	if e.cfg.ProgressDeadline <= 0 {
		return false
	}
	e.idleYields++
	if e.idleYields < e.nextStall {
		return false
	}
	next := e.idleYields * 2
	if next > e.idleYields+256 {
		next = e.idleYields + 256
	}
	e.nextStall = next
	e.m.stallChecks.Inc()
	if time.Since(e.lastProgress) <= e.cfg.ProgressDeadline {
		return false
	}
	e.fail(&StalledError{
		Thread:   t.ID,
		Yields:   e.stats.YieldPoints,
		Events:   e.r.EventIndex(),
		Deadline: e.cfg.ProgressDeadline,
	})
	return true
}

// Begin performs DejaVu initialization with symmetric side effects (§2.4):
// the capture buffer is allocated in the VM heap in both modes (or, under
// the SymmetricAlloc ablation, only when recording — the bug the paper's
// design avoids), and replay prefetches its first switch count.
func (e *Engine) Begin(host Host) error {
	e.host = host
	if e.mode != ModeOff && host != nil {
		if e.cfg.SymmetricAlloc || e.mode == ModeRecord {
			if err := host.AllocCaptureBuffer(e.cfg.CaptureBufBytes); err != nil {
				return err
			}
		}
	}
	if e.mode != ModeOff && e.cfg.WarmupIO {
		warmup.once.Do(func() { warmup.bytes, warmup.err = warmupIO() })
		if warmup.err != nil {
			return warmup.err
		}
		e.stats.WarmupBytes = warmup.bytes
	}
	if e.mode == ModeReplay {
		e.markProgress()
		e.loadNextSwitch()
	}
	return nil
}

// warmup is the process's one I/O warm-up: like a JVM initializing its
// I/O classes, the process initializes its I/O paths once, and every
// engine that asks for the warm-up reports its byte count, or its error.
var warmup struct {
	once  sync.Once
	bytes uint64
	err   error
}

// warmupIO writes a temporary file and immediately reads it back — the
// paper's trick for forcing both the output path (used by record) and the
// input path (used by replay) through identical initialization in both
// modes (§2.4). It runs once per process, under warmup.once, and returns
// the bytes written and read.
func warmupIO() (uint64, error) {
	f, err := os.CreateTemp("", "dejavu-warmup-*")
	if err != nil {
		return 0, fmt.Errorf("core: I/O warm-up: %w", err)
	}
	name := f.Name()
	defer os.Remove(name)
	payload := []byte("dejavu symmetric I/O warm-up")
	if _, err := f.Write(payload); err != nil {
		f.Close()
		return 0, fmt.Errorf("core: I/O warm-up write: %w", err)
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	back, err := os.ReadFile(name)
	if err != nil {
		return 0, fmt.Errorf("core: I/O warm-up read: %w", err)
	}
	if string(back) != string(payload) {
		return 0, fmt.Errorf("core: I/O warm-up round-trip mismatch")
	}
	return uint64(len(payload) + len(back)), nil
}

// End finalizes record mode and returns the trace bytes. When recording
// through an external sink (Config.TraceSink) the bytes live wherever the
// sink put them: End still emits the final data-stream event but returns
// nil, and the caller closes the sink.
func (e *Engine) End() []byte {
	if e.mode != ModeRecord {
		return nil
	}
	e.w.End()
	e.m.traceBytes.Set(int64(e.w.Stats().TotalBytes))
	if bw, ok := e.w.(*trace.Writer); ok {
		return bw.Bytes()
	}
	return nil
}

// sourceErrer is implemented by streaming sources whose NextSwitch can
// fail on transport errors rather than clean exhaustion.
type sourceErrer interface{ Err() error }

func (e *Engine) loadNextSwitch() {
	nyp, ok := e.r.NextSwitch()
	e.nyp = nyp
	e.hasPending = ok
	if ok {
		e.markProgress()
	}
	if !ok {
		// A flat reader runs out of switches only at the recorded end; a
		// streaming source may instead have hit a truncated or corrupt
		// container, which must fail replay, not silently disable
		// preemption.
		if se, isSE := e.r.(sourceErrer); isSE && se.Err() != nil {
			e.fail(se.Err())
		} else if e.cfg.PartialTrace {
			// Salvaged trace: the switch stream ends at the salvage
			// point, not at the recorded end. Failing here — at the
			// prefetch — stops replay at the last switch the recording
			// still vouches for.
			e.fail(ErrPartialTrace)
		}
	}
}

// AtYieldPoint is the Fig. 2 instrumentation, executed at every yield
// point (method prologues and loop backedges). It returns true when the
// caller must perform a thread switch at this yield point.
func (e *Engine) AtYieldPoint(t *threads.Thread) bool {
	if e.err != nil {
		return false
	}
	e.lastThread = t.ID
	switch e.mode {
	case ModeOff:
		e.stats.YieldPoints++
		e.m.yieldPoints.Inc()
		t.YieldCount++
		return e.cfg.Preempt != nil && e.cfg.Preempt.Pending()

	case ModeRecord:
		if e.liveClock {
			e.liveClock = false // pause the clock
			e.stats.YieldPoints++
			e.m.yieldPoints.Inc()
			e.nyp++
			t.YieldCount++
			if e.cfg.Preempt.Pending() { // preemptiveHardwareBit
				e.m.preemptRec.Inc()
				e.runInstrumentation(t, e.cfg.InstrYieldsRecord)
				e.w.Switch(e.nyp) // recordThreadSwitch(nyp)
				e.stats.Switches++
				e.m.switches.Inc()
				e.nyp = 0
				e.symmetricSwitchEffects()
				e.switchBit = true
			}
			e.liveClock = true // resume the clock
		} else {
			e.instrumentationYield(t)
		}

	case ModeReplay:
		if e.liveClock {
			e.liveClock = false
			e.stats.YieldPoints++
			e.m.yieldPoints.Inc()
			t.YieldCount++
			if e.checkStall(t) {
				e.liveClock = true
				return false
			}
			if e.hasPending {
				if e.nyp > 0 {
					e.nyp--
				}
				if e.nyp == 0 { // the recorded program switched here
					e.m.preemptRep.Inc()
					e.runInstrumentation(t, e.cfg.InstrYieldsReplay)
					e.loadNextSwitch() // nyp = replayThreadSwitch()
					e.stats.Switches++
					e.m.switches.Inc()
					e.symmetricSwitchEffects()
					e.switchBit = true
				}
			}
			e.liveClock = true
		} else {
			e.instrumentationYield(t)
		}
	}
	if e.switchBit {
		e.switchBit = false
		return true // performThreadSwitch()
	}
	return false
}

// runInstrumentation simulates the instrumentation's own execution passing
// through k yield points while the logical clock is paused. Record and
// replay instrumentation perform different work (k differs by mode), which
// is harmless exactly because of the liveclock guard.
func (e *Engine) runInstrumentation(t *threads.Thread, k int) {
	if e.inInstr {
		return
	}
	e.inInstr = true
	for i := 0; i < k; i++ {
		e.AtYieldPoint(t)
	}
	e.inInstr = false
}

// instrumentationYield handles a yield point reached with the clock
// paused. With the guard enabled it is excluded from the logical clock;
// the ablation counts it, breaking record/replay symmetry.
func (e *Engine) instrumentationYield(t *threads.Thread) {
	e.stats.InstrYields++
	e.m.instrYields.Inc()
	if e.cfg.LiveClockGuard {
		return
	}
	// Ablation: instrumentation yields leak into the logical clock.
	switch e.mode {
	case ModeRecord:
		e.nyp++
		t.YieldCount++
	case ModeReplay:
		t.YieldCount++
		if e.hasPending && e.nyp > 0 {
			e.nyp--
		}
	}
}

// symmetricSwitchEffects performs the engine's per-switch side effects on
// the VM. With EagerStackGrow both modes grow the activation stack at one
// heuristic threshold; the ablation uses the modes' true (differing)
// frame needs, desynchronizing stack growth between record and replay.
func (e *Engine) symmetricSwitchEffects() {
	if e.host == nil {
		return
	}
	slots := 16
	if !e.cfg.EagerStackGrow {
		if e.mode == ModeRecord {
			slots = 6
		} else {
			slots = 24
		}
	}
	if err := e.host.EnsureStackHeadroom(slots); err != nil {
		e.fail(err)
	}
}

// ClockRead performs one wall-clock read (§2.1, §2.2): recorded during
// record, regenerated during replay, so every timer expiry and Date()
// branch reproduces.
func (e *Engine) ClockRead() int64 {
	e.stats.ClockReads++
	e.m.clockReads.Inc()
	switch e.mode {
	case ModeRecord:
		v := e.cfg.Time.NowMillis()
		e.w.Clock(v)
		return v
	case ModeReplay:
		v, err := e.r.Clock()
		if err != nil {
			e.fail(err)
			return 0
		}
		e.markProgress()
		return v
	default:
		return e.cfg.Time.NowMillis()
	}
}

// NativeCall brackets a non-deterministic native call (§2.5): run executes
// the real native and is only invoked in off/record modes; replay returns
// the recorded results without running it.
func (e *Engine) NativeCall(id int, run func() []int64) []int64 {
	e.stats.NativeCalls++
	e.m.nativeCalls.Inc()
	switch e.mode {
	case ModeRecord:
		vals := run()
		e.w.Native(id, vals)
		return vals
	case ModeReplay:
		vals, err := e.r.Native(id)
		if err != nil {
			e.fail(err)
			return nil
		}
		e.markProgress()
		return vals
	default:
		return run()
	}
}

// NativeWithCallbacks brackets a native that makes callbacks into the VM.
// run receives an emit function it must call for every callback; apply
// executes one callback in the VM. During replay the native is not run:
// recorded callbacks are re-applied at the same execution point, then the
// recorded results are returned (§2.5).
func (e *Engine) NativeWithCallbacks(
	id int,
	run func(emit func(cb int, params []int64)) []int64,
	apply func(cb int, params []int64),
) []int64 {
	e.stats.NativeCalls++
	e.m.nativeCalls.Inc()
	switch e.mode {
	case ModeRecord:
		vals := run(func(cb int, params []int64) {
			e.stats.Callbacks++
			e.w.Callback(cb, params)
			apply(cb, params)
		})
		e.w.Native(id, vals)
		return vals
	case ModeReplay:
		for {
			k, err := e.r.Peek()
			if err != nil {
				e.fail(err)
				return nil
			}
			if k != trace.EvCallback {
				break
			}
			cb, params, err := e.r.Callback()
			if err != nil {
				e.fail(err)
				return nil
			}
			e.stats.Callbacks++
			e.markProgress()
			apply(cb, params)
		}
		vals, err := e.r.Native(id)
		if err != nil {
			e.fail(err)
			return nil
		}
		e.markProgress()
		return vals
	default:
		return run(func(cb int, params []int64) {
			e.stats.Callbacks++
			apply(cb, params)
		})
	}
}

// ReadLine reads one environment input line (without the newline),
// recording or replaying it.
func (e *Engine) ReadLine() []byte {
	e.stats.InputReads++
	readReal := func() []byte {
		if e.input == nil {
			return nil
		}
		line, err := e.input.ReadBytes('\n')
		if len(line) > 0 && line[len(line)-1] == '\n' {
			line = line[:len(line)-1]
		}
		if err != nil && len(line) == 0 {
			return nil
		}
		return line
	}
	switch e.mode {
	case ModeRecord:
		b := readReal()
		e.w.Input(b)
		return b
	case ModeReplay:
		b, err := e.r.Input()
		if err != nil {
			e.fail(err)
			return nil
		}
		e.markProgress()
		return b
	default:
		return readReal()
	}
}

// ReplayedEvents returns how many data events replay has consumed — the N
// in a partial-trace report ("replayed N of ~M events"). ok is false
// outside replay mode.
func (e *Engine) ReplayedEvents() (n int, ok bool) {
	if e.mode != ModeReplay {
		return 0, false
	}
	return e.r.EventIndex(), true
}

// RecordPos returns the record-mode logical position within the current
// switch interval: how many yield points have executed since the last
// recorded switch. Segment checkpoints store it so a seeded replay can
// align its countdown with the middle of the interval. ok is false outside
// record mode.
func (e *Engine) RecordPos() (nyp uint64, ok bool) {
	if e.mode != ModeRecord {
		return 0, false
	}
	return e.nyp, true
}

// SeedAt moves a replay engine to a journal segment seam, the trace
// position pos where a segment starts (trace.Reader.SegmentStart), to
// resume replay from that segment's checkpoint. The checkpoint sits
// boundaryNYP yield points into the switch interval that spans the seam,
// so the countdown the segment's first switch starts shrinks by that much.
// SeedAt leaves the engine as a fresh engine over the segment is after
// Begin and this alignment: the seam's switch loaded, switchBit clear, the
// clock live, no sticky error. It is the one seeding rule, for an engine
// at event zero and for one moved back or forward in place.
//
// A checkpoint that does not fit its segment (boundaryNYP not inside the
// interval) is refused with the engine untouched. A streaming source cannot
// seek, so its engine refuses every seam with ErrNotSeekable.
func (e *Engine) SeedAt(pos trace.ReaderPos, boundaryNYP uint64) error {
	if e.mode != ModeReplay {
		return ErrNotReplaying
	}
	sk, ok := e.r.(traceSeeker)
	if !ok {
		return ErrNotSeekable
	}
	cur := sk.Pos()
	sk.Seek(pos)
	if nyp, pending := e.r.NextSwitch(); pending && boundaryNYP > 0 && boundaryNYP >= nyp {
		sk.Seek(cur)
		return fmt.Errorf("core: checkpoint does not match its segment: checkpoint sits %d yields into a %d-yield switch interval",
			boundaryNYP, nyp)
	}
	sk.Seek(pos)
	e.err = nil
	e.switchBit, e.liveClock = false, true
	e.markProgress()
	e.loadNextSwitch()
	if e.hasPending {
		e.nyp -= boundaryNYP
	}
	return nil
}

// PendingSwitch exposes the replay countdown for the debugger's status
// display.
func (e *Engine) PendingSwitch() (nyp uint64, pending bool, err error) {
	if e.mode != ModeReplay {
		return 0, false, ErrNotReplaying
	}
	return e.nyp, e.hasPending, nil
}

// EngineSnapshot captures the engine's replay-mode state so a checkpointed
// VM can resume consuming the trace from the same point (Igor-style
// checkpointing and debugger time travel).
type EngineSnapshot struct {
	readerPos  trace.ReaderPos
	nyp        uint64
	hasPending bool
	switchBit  bool
	liveClock  bool
	stats      Stats
}

// traceSeeker is the optional rewind surface a Source may provide; only
// the in-memory Reader does.
type traceSeeker interface {
	Pos() trace.ReaderPos
	Seek(trace.ReaderPos)
}

// Snapshot captures replay position and countdown state. Only meaningful
// in replay mode (record-mode traces are append-only and cannot rewind),
// and only over a seekable (in-memory) trace source.
func (e *Engine) Snapshot() (*EngineSnapshot, error) {
	if e.mode != ModeReplay {
		return nil, ErrNotReplaying
	}
	sk, ok := e.r.(traceSeeker)
	if !ok {
		return nil, ErrNotSeekable
	}
	return &EngineSnapshot{
		readerPos:  sk.Pos(),
		nyp:        e.nyp,
		hasPending: e.hasPending,
		switchBit:  e.switchBit,
		liveClock:  e.liveClock,
		stats:      e.stats,
	}, nil
}

// Restore rewinds the engine to a snapshot.
func (e *Engine) Restore(s *EngineSnapshot) error {
	if e.mode != ModeReplay {
		return ErrNotReplaying
	}
	sk, ok := e.r.(traceSeeker)
	if !ok {
		return ErrNotSeekable
	}
	sk.Seek(s.readerPos)
	e.nyp = s.nyp
	e.hasPending = s.hasPending
	e.switchBit = s.switchBit
	e.liveClock = s.liveClock
	e.stats = s.stats
	e.err = nil
	// Rewinding is progress from the watchdog's point of view: restart the
	// deadline and the no-progress streak so a freshly restored session has
	// a full deadline to resume consuming trace. The obs metrics in e.m are
	// deliberately NOT rewound — they describe host-side work performed,
	// not replayed state, and restoring them would make observation part of
	// the snapshot (exactly what the obs invariant forbids).
	e.markProgress()
	return nil
}

// EncodeTo serializes the engine snapshot for checkpoint files.
func (s *EngineSnapshot) EncodeTo(buf *[]byte) {
	uv := func(v uint64) {
		for v >= 0x80 {
			*buf = append(*buf, byte(v)|0x80)
			v >>= 7
		}
		*buf = append(*buf, byte(v))
	}
	b := func(v bool) {
		if v {
			*buf = append(*buf, 1)
		} else {
			*buf = append(*buf, 0)
		}
	}
	uv(uint64(s.readerPos.SwPos))
	uv(uint64(s.readerPos.Pos))
	uv(uint64(s.readerPos.Index))
	uv(s.nyp)
	b(s.hasPending)
	b(s.switchBit)
	b(s.liveClock)
	uv(s.stats.Switches)
	uv(s.stats.YieldPoints)
	uv(s.stats.InstrYields)
	uv(s.stats.ClockReads)
	uv(s.stats.NativeCalls)
	uv(s.stats.InputReads)
	uv(s.stats.Callbacks)
	uv(s.stats.WarmupBytes)
}

// DecodeEngineSnapshot parses a snapshot encoded by EncodeTo, returning
// the unread remainder.
func DecodeEngineSnapshot(data []byte) (*EngineSnapshot, []byte, error) {
	var fail error
	uv := func() uint64 {
		if fail != nil {
			return 0
		}
		var v uint64
		var shift uint
		for i := 0; i < len(data); i++ {
			c := data[i]
			if c < 0x80 {
				data = data[i+1:]
				return v | uint64(c)<<shift
			}
			v |= uint64(c&0x7f) << shift
			shift += 7
		}
		fail = errors.New("core: truncated engine snapshot")
		return 0
	}
	b := func() bool {
		if fail != nil || len(data) == 0 {
			fail = errors.New("core: truncated engine snapshot")
			return false
		}
		v := data[0]
		data = data[1:]
		return v == 1
	}
	s := &EngineSnapshot{}
	s.readerPos.SwPos = int(uv())
	s.readerPos.Pos = int(uv())
	s.readerPos.Index = int(uv())
	s.nyp = uv()
	s.hasPending = b()
	s.switchBit = b()
	s.liveClock = b()
	s.stats.Switches = uv()
	s.stats.YieldPoints = uv()
	s.stats.InstrYields = uv()
	s.stats.ClockReads = uv()
	s.stats.NativeCalls = uv()
	s.stats.InputReads = uv()
	s.stats.Callbacks = uv()
	s.stats.WarmupBytes = uv()
	if fail != nil {
		return nil, nil, fail
	}
	return s, data, nil
}
