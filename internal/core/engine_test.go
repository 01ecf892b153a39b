package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"dejavu/internal/threads"
	"dejavu/internal/trace"
)

type fakeHost struct {
	bufAllocs []int
	growCalls []int
	failAlloc bool
}

func (h *fakeHost) AllocCaptureBuffer(n int) error {
	if h.failAlloc {
		return errors.New("alloc failed")
	}
	h.bufAllocs = append(h.bufAllocs, n)
	return nil
}

func (h *fakeHost) EnsureStackHeadroom(slots int) error {
	h.growCalls = append(h.growCalls, slots)
	return nil
}

// driveYields pushes n yield points through the engine, returning the
// indices at which it demanded a thread switch.
func driveYields(e *Engine, t *threads.Thread, n int) []int {
	var switches []int
	for i := 0; i < n; i++ {
		if e.AtYieldPoint(t) {
			switches = append(switches, i)
		}
	}
	return switches
}

func newThread() *threads.Thread {
	s := threads.NewScheduler()
	return s.NewThread()
}

func TestRecordReplaySwitchPointsIdentical(t *testing.T) {
	const yields = 5000
	cfg := DefaultConfig(ModeRecord)
	cfg.Preempt = NewSeededPreemptor(42, 5, 50)
	rec, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	host := &fakeHost{}
	if err := rec.Begin(host); err != nil {
		t.Fatal(err)
	}
	t1 := newThread()
	recSwitches := driveYields(rec, t1, yields)
	if len(recSwitches) < 50 {
		t.Fatalf("too few switches recorded: %d", len(recSwitches))
	}
	traceBytes := rec.End()

	rcfg := DefaultConfig(ModeReplay)
	rcfg.TraceIn = traceBytes
	rep, err := NewEngine(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Begin(&fakeHost{}); err != nil {
		t.Fatal(err)
	}
	t2 := newThread()
	repSwitches := driveYields(rep, t2, yields)
	if !reflect.DeepEqual(recSwitches, repSwitches) {
		t.Fatalf("switch points differ:\nrecord: %v...\nreplay: %v...",
			recSwitches[:min(10, len(recSwitches))], repSwitches[:min(10, len(repSwitches))])
	}
	if rep.Err() != nil {
		t.Fatalf("replay error: %v", rep.Err())
	}
	if t1.YieldCount != t2.YieldCount {
		t.Fatalf("logical clocks differ: %d vs %d", t1.YieldCount, t2.YieldCount)
	}
}

func TestLiveClockExcludesInstrumentationYields(t *testing.T) {
	cfg := DefaultConfig(ModeRecord)
	cfg.Preempt = NewSeededPreemptor(7, 3, 9)
	cfg.InstrYieldsRecord = 5
	e, _ := NewEngine(cfg)
	e.Begin(&fakeHost{})
	th := newThread()
	driveYields(e, th, 1000)
	st := e.Stats()
	if st.InstrYields != 5*st.Switches {
		t.Fatalf("instrumentation yields = %d, switches = %d", st.InstrYields, st.Switches)
	}
	// The logical clock counts exactly the real yield points.
	if th.YieldCount != 1000 {
		t.Fatalf("logical clock = %d, want 1000", th.YieldCount)
	}
}

func TestLiveClockAblationBreaksReplay(t *testing.T) {
	// With the guard off, record instrumentation leaks extra counts into
	// nyp while replay leaks a different number, so replayed switch points
	// drift from the recorded ones.
	cfg := DefaultConfig(ModeRecord)
	cfg.Preempt = NewSeededPreemptor(11, 5, 20)
	cfg.LiveClockGuard = false
	rec, _ := NewEngine(cfg)
	rec.Begin(&fakeHost{})
	recSwitches := driveYields(rec, newThread(), 2000)
	tr := rec.End()

	rcfg := DefaultConfig(ModeReplay)
	rcfg.TraceIn = tr
	rcfg.LiveClockGuard = false
	rep, _ := NewEngine(rcfg)
	rep.Begin(&fakeHost{})
	repSwitches := driveYields(rep, newThread(), 2000)
	if reflect.DeepEqual(recSwitches, repSwitches) {
		t.Fatal("ablation unexpectedly preserved switch points")
	}
}

func TestSymmetricAllocation(t *testing.T) {
	for _, mode := range []Mode{ModeRecord, ModeReplay} {
		cfg := DefaultConfig(mode)
		cfg.Preempt = NeverPreempt{}
		if mode == ModeReplay {
			w := trace.NewWriter(0)
			w.End()
			cfg.TraceIn = w.Bytes()
		}
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		host := &fakeHost{}
		if err := e.Begin(host); err != nil {
			t.Fatal(err)
		}
		if len(host.bufAllocs) != 1 || host.bufAllocs[0] != cfg.CaptureBufBytes {
			t.Fatalf("%v: capture buffer allocs = %v", mode, host.bufAllocs)
		}
	}
}

func TestAsymmetricAllocationAblation(t *testing.T) {
	cfg := DefaultConfig(ModeReplay)
	cfg.SymmetricAlloc = false
	w := trace.NewWriter(0)
	w.End()
	cfg.TraceIn = w.Bytes()
	e, _ := NewEngine(cfg)
	host := &fakeHost{}
	e.Begin(host)
	if len(host.bufAllocs) != 0 {
		t.Fatal("ablation should skip the replay-mode buffer allocation")
	}
}

func TestEagerStackGrowthSymmetry(t *testing.T) {
	run := func(eager bool, mode Mode, tr []byte) []int {
		cfg := DefaultConfig(mode)
		cfg.EagerStackGrow = eager
		cfg.Preempt = NewSeededPreemptor(3, 4, 10)
		cfg.TraceIn = tr
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		host := &fakeHost{}
		e.Begin(host)
		driveYields(e, newThread(), 500)
		if mode == ModeRecord {
			tr = e.End()
			t.Cleanup(func() {})
			lastTrace = tr
		}
		return host.growCalls
	}
	recGrow := run(true, ModeRecord, nil)
	repGrow := run(true, ModeReplay, lastTrace)
	if !reflect.DeepEqual(recGrow, repGrow) {
		t.Fatalf("eager growth differs between modes: %v vs %v", recGrow[:min(3, len(recGrow))], repGrow[:min(3, len(repGrow))])
	}
	recGrow = run(false, ModeRecord, nil)
	repGrow = run(false, ModeReplay, lastTrace)
	if reflect.DeepEqual(recGrow, repGrow) {
		t.Fatal("ablation should desynchronize stack growth")
	}
}

var lastTrace []byte

func TestClockReadRecordReplay(t *testing.T) {
	cfg := DefaultConfig(ModeRecord)
	cfg.Time = &FakeTime{Base: 1000, Step: 7}
	rec, _ := NewEngine(cfg)
	rec.Begin(&fakeHost{})
	var recorded []int64
	for i := 0; i < 20; i++ {
		recorded = append(recorded, rec.ClockRead())
	}
	tr := rec.End()

	rcfg := DefaultConfig(ModeReplay)
	rcfg.Time = &FakeTime{Base: 999999, Step: 1} // must be ignored
	rcfg.TraceIn = tr
	rep, _ := NewEngine(rcfg)
	rep.Begin(&fakeHost{})
	for i := 0; i < 20; i++ {
		if got := rep.ClockRead(); got != recorded[i] {
			t.Fatalf("clock read %d: got %d want %d", i, got, recorded[i])
		}
	}
	if rep.Err() != nil {
		t.Fatal(rep.Err())
	}
}

func TestNativeCallRecordReplay(t *testing.T) {
	cfg := DefaultConfig(ModeRecord)
	rec, _ := NewEngine(cfg)
	rec.Begin(&fakeHost{})
	ran := 0
	got := rec.NativeCall(9, func() []int64 { ran++; return []int64{5, -6} })
	if ran != 1 || !reflect.DeepEqual(got, []int64{5, -6}) {
		t.Fatalf("record native: ran=%d got=%v", ran, got)
	}
	tr := rec.End()

	rcfg := DefaultConfig(ModeReplay)
	rcfg.TraceIn = tr
	rep, _ := NewEngine(rcfg)
	rep.Begin(&fakeHost{})
	got = rep.NativeCall(9, func() []int64 { t.Fatal("native must not run during replay"); return nil })
	if !reflect.DeepEqual(got, []int64{5, -6}) {
		t.Fatalf("replay native: %v", got)
	}
}

func TestNativeWithCallbacks(t *testing.T) {
	cfg := DefaultConfig(ModeRecord)
	rec, _ := NewEngine(cfg)
	rec.Begin(&fakeHost{})
	var applied [][]int64
	got := rec.NativeWithCallbacks(4,
		func(emit func(int, []int64)) []int64 {
			emit(1, []int64{10})
			emit(2, []int64{20, 21})
			return []int64{99}
		},
		func(cb int, params []int64) { applied = append(applied, append([]int64{int64(cb)}, params...)) })
	if !reflect.DeepEqual(got, []int64{99}) || len(applied) != 2 {
		t.Fatalf("record: got=%v applied=%v", got, applied)
	}
	tr := rec.End()

	rcfg := DefaultConfig(ModeReplay)
	rcfg.TraceIn = tr
	rep, _ := NewEngine(rcfg)
	rep.Begin(&fakeHost{})
	var replayApplied [][]int64
	got = rep.NativeWithCallbacks(4,
		func(emit func(int, []int64)) []int64 { t.Fatal("native must not run"); return nil },
		func(cb int, params []int64) {
			replayApplied = append(replayApplied, append([]int64{int64(cb)}, params...))
		})
	if !reflect.DeepEqual(got, []int64{99}) {
		t.Fatalf("replay results: %v", got)
	}
	if !reflect.DeepEqual(applied, replayApplied) {
		t.Fatalf("callbacks differ: %v vs %v", applied, replayApplied)
	}
}

func TestReadLineRecordReplay(t *testing.T) {
	cfg := DefaultConfig(ModeRecord)
	cfg.Input = bytes.NewBufferString("first\nsecond\n")
	rec, _ := NewEngine(cfg)
	rec.Begin(&fakeHost{})
	if got := rec.ReadLine(); string(got) != "first" {
		t.Fatalf("line 1 = %q", got)
	}
	if got := rec.ReadLine(); string(got) != "second" {
		t.Fatalf("line 2 = %q", got)
	}
	if got := rec.ReadLine(); got != nil {
		t.Fatalf("eof line = %q", got)
	}
	tr := rec.End()

	rcfg := DefaultConfig(ModeReplay)
	rcfg.TraceIn = tr
	rep, _ := NewEngine(rcfg)
	rep.Begin(&fakeHost{})
	if got := rep.ReadLine(); string(got) != "first" {
		t.Fatalf("replay line 1 = %q", got)
	}
	if got := rep.ReadLine(); string(got) != "second" {
		t.Fatalf("replay line 2 = %q", got)
	}
}

func TestDivergenceIsSticky(t *testing.T) {
	w := trace.NewWriter(0)
	w.Clock(1)
	w.End()
	cfg := DefaultConfig(ModeReplay)
	cfg.TraceIn = w.Bytes()
	e, _ := NewEngine(cfg)
	e.Begin(&fakeHost{})
	e.ReadLine() // trace holds a clock event: divergence
	if e.Err() == nil {
		t.Fatal("expected divergence error")
	}
	var div *trace.DivergenceError
	if !errors.As(e.Err(), &div) {
		t.Fatalf("error type: %v", e.Err())
	}
	first := e.Err()
	e.ClockRead()
	if e.Err() != first {
		t.Fatal("error not sticky")
	}
}

func TestReplayWrongProgramRejected(t *testing.T) {
	w := trace.NewWriter(111)
	w.End()
	cfg := DefaultConfig(ModeReplay)
	cfg.TraceIn = w.Bytes()
	cfg.ProgHash = 222
	if _, err := NewEngine(cfg); err == nil {
		t.Fatal("expected program hash mismatch")
	}
}

func TestRecordRequiresPreemptor(t *testing.T) {
	cfg := DefaultConfig(ModeRecord)
	cfg.Preempt = nil
	if _, err := NewEngine(cfg); err == nil {
		t.Fatal("expected error")
	}
}

func TestHostTimerFires(t *testing.T) {
	h := StartHostTimer(time.Millisecond)
	defer h.Stop()
	deadline := time.After(2 * time.Second)
	for {
		if h.Pending() {
			return
		}
		select {
		case <-deadline:
			t.Fatal("host timer never fired")
		default:
			time.Sleep(time.Millisecond)
		}
	}
}

func TestSeededPreemptorDeterministic(t *testing.T) {
	fires := func(seed int64) []int {
		p := NewSeededPreemptor(seed, 2, 9)
		var out []int
		for i := 0; i < 500; i++ {
			if p.Pending() {
				out = append(out, i)
			}
		}
		return out
	}
	if !reflect.DeepEqual(fires(5), fires(5)) {
		t.Fatal("same seed must fire identically")
	}
	if reflect.DeepEqual(fires(5), fires(6)) {
		t.Fatal("different seeds should differ")
	}
}

func TestPendingSwitchQuery(t *testing.T) {
	cfg := DefaultConfig(ModeRecord)
	e, _ := NewEngine(cfg)
	if _, _, err := e.PendingSwitch(); !errors.Is(err, ErrNotReplaying) {
		t.Fatalf("err = %v", err)
	}
}

func TestModeString(t *testing.T) {
	if ModeOff.String() != "off" || ModeRecord.String() != "record" || ModeReplay.String() != "replay" {
		t.Fatal("mode names")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestOffModePaths(t *testing.T) {
	cfg := DefaultConfig(ModeOff)
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Begin(&fakeHost{})
	// Natives run live in off mode.
	got := e.NativeCall(1, func() []int64 { return []int64{7} })
	if len(got) != 1 || got[0] != 7 {
		t.Fatalf("off native: %v", got)
	}
	applied := 0
	got = e.NativeWithCallbacks(2,
		func(emit func(int, []int64)) []int64 { emit(1, []int64{3}); return []int64{1} },
		func(cb int, params []int64) { applied++ })
	if applied != 1 || got[0] != 1 {
		t.Fatalf("off callbacks: applied=%d got=%v", applied, got)
	}
	// No input configured: ReadLine returns nil.
	if b := e.ReadLine(); b != nil {
		t.Fatalf("off readline: %q", b)
	}
	// Clock reads pass through the time source.
	if v := e.ClockRead(); v == 0 {
		t.Fatal("off clock read returned zero from RealTime")
	}
}

func TestEngineSnapshotRestore(t *testing.T) {
	// Record a short run, then replay half, snapshot, finish, restore, and
	// finish again: the second consumption must see the same values.
	rcfg := DefaultConfig(ModeRecord)
	rcfg.Time = &FakeTime{Base: 10, Step: 5}
	rcfg.Preempt = NewSeededPreemptor(2, 3, 9)
	rec, _ := NewEngine(rcfg)
	rec.Begin(&fakeHost{})
	th := newThread()
	for i := 0; i < 100; i++ {
		rec.AtYieldPoint(th)
		if i%10 == 0 {
			rec.ClockRead()
		}
	}
	tr := rec.End()

	pcfg := DefaultConfig(ModeReplay)
	pcfg.TraceIn = tr
	rep, _ := NewEngine(pcfg)
	rep.Begin(&fakeHost{})
	th2 := newThread()
	firstHalf := []int64{}
	for i := 0; i < 50; i++ {
		rep.AtYieldPoint(th2)
		if i%10 == 0 {
			firstHalf = append(firstHalf, rep.ClockRead())
		}
	}
	snap, err := rep.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	tail := func() []int64 {
		var out []int64
		for i := 50; i < 100; i++ {
			rep.AtYieldPoint(th2)
			if i%10 == 0 {
				out = append(out, rep.ClockRead())
			}
		}
		return out
	}
	t1 := tail()
	if err := rep.Restore(snap); err != nil {
		t.Fatal(err)
	}
	t2 := tail()
	if !reflect.DeepEqual(t1, t2) {
		t.Fatalf("replay tails differ after engine restore: %v vs %v", t1, t2)
	}
	if rep.Err() != nil {
		t.Fatal(rep.Err())
	}
	_ = firstHalf

	// Codec round trip.
	var buf []byte
	snap.EncodeTo(&buf)
	dec, rest, err := DecodeEngineSnapshot(buf)
	if err != nil || len(rest) != 0 {
		t.Fatalf("%v, %d trailing", err, len(rest))
	}
	if err := rep.Restore(dec); err != nil {
		t.Fatal(err)
	}
	t3 := tail()
	if !reflect.DeepEqual(t1, t3) {
		t.Fatal("decoded snapshot restored differently")
	}
	for _, cut := range []int{0, 1, 5, len(buf) - 1} {
		if _, _, err := DecodeEngineSnapshot(buf[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// Snapshot is replay-only.
	if _, err := rec.Snapshot(); err != ErrNotReplaying {
		t.Fatalf("record snapshot: %v", err)
	}
	if err := rec.Restore(snap); err != ErrNotReplaying {
		t.Fatalf("record restore: %v", err)
	}
}

func TestWarmupIOSymmetric(t *testing.T) {
	for _, mode := range []Mode{ModeRecord, ModeReplay} {
		cfg := DefaultConfig(mode)
		cfg.Preempt = NeverPreempt{}
		if mode == ModeReplay {
			w := trace.NewWriter(0)
			w.End()
			cfg.TraceIn = w.Bytes()
		}
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Begin(&fakeHost{}); err != nil {
			t.Fatal(err)
		}
		if e.Stats().WarmupBytes == 0 {
			t.Fatalf("%v: I/O warm-up did not run", mode)
		}
	}
	// Off mode skips it.
	e, _ := NewEngine(DefaultConfig(ModeOff))
	e.Begin(&fakeHost{})
	if e.Stats().WarmupBytes != 0 {
		t.Fatal("off mode should not warm up I/O")
	}
}

// TestWarmupIOOncePerProcess: the warm-up runs once per process. Once a
// first engine has warmed up, a second one reports the same WarmupBytes
// with TMPDIR pointing at a directory that does not exist, where
// creating the warm-up's temp file would fail.
func TestWarmupIOOncePerProcess(t *testing.T) {
	begin := func() *Engine {
		t.Helper()
		cfg := DefaultConfig(ModeRecord)
		cfg.Preempt = NeverPreempt{}
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Begin(&fakeHost{}); err != nil {
			t.Fatalf("Begin: %v", err)
		}
		return e
	}
	first := begin()
	t.Setenv("TMPDIR", filepath.Join(t.TempDir(), "missing"))
	if f, err := os.CreateTemp("", "dejavu-probe-*"); err == nil {
		f.Close()
		t.Fatalf("temp files can still be created (%s); the check below would prove nothing", f.Name())
	}
	second := begin()
	if got, want := second.Stats().WarmupBytes, first.Stats().WarmupBytes; got != want || want == 0 {
		t.Fatalf("second engine WarmupBytes %d, first %d", got, want)
	}
}

// TestEngineSnapshotCodecAllStats fills every Stats field with a distinct
// value via reflection and round-trips the snapshot codec. Adding a field
// to Stats without extending EncodeTo/DecodeEngineSnapshot fails here
// (the regression that silently dropped WarmupBytes from checkpoints).
func TestEngineSnapshotCodecAllStats(t *testing.T) {
	s := &EngineSnapshot{
		readerPos:  trace.ReaderPos{SwPos: 3, Pos: 999, Index: 42},
		nyp:        77,
		hasPending: true,
		switchBit:  true,
		liveClock:  true,
	}
	sv := reflect.ValueOf(&s.stats).Elem()
	for i := 0; i < sv.NumField(); i++ {
		f := sv.Field(i)
		if f.Kind() != reflect.Uint64 {
			t.Fatalf("Stats field %s is %v; extend this test for non-uint64 fields",
				sv.Type().Field(i).Name, f.Kind())
		}
		f.SetUint(uint64(1000 + i*131)) // distinct per field, multi-byte varints
	}
	var buf []byte
	s.EncodeTo(&buf)
	got, rest, err := DecodeEngineSnapshot(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes left over", len(rest))
	}
	if !reflect.DeepEqual(s, got) {
		t.Fatalf("snapshot did not round-trip:\nenc %+v\ndec %+v", s, got)
	}
	// Every truncation of the encoding must error, not mis-decode.
	for cut := 0; cut < len(buf); cut++ {
		if _, _, err := DecodeEngineSnapshot(buf[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}
