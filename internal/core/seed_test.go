package core

import (
	"errors"
	"testing"

	"dejavu/internal/trace"
)

// seamState is the replay state SeedAt sets.
type seamState struct {
	pos                           trace.ReaderPos
	nyp                           uint64
	pending, switchBit, liveClock bool
	err                           error
}

func seamStateOf(e *Engine) seamState {
	return seamState{e.r.(traceSeeker).Pos(), e.nyp, e.hasPending, e.switchBit, e.liveClock, e.err}
}

// TestSeedAtMatchesFreshEngine: SeedAt leaves an engine that has replayed
// elsewhere, and was caught with its clock paused, a switch due and a
// sticky error, exactly as it leaves a freshly begun one. From the zero
// position it aligns the prefetched first switch; a checkpoint that does
// not fit the seam's switch interval is refused with the engine untouched.
// An engine over a streaming source cannot seek and refuses every seam,
// the zero position of a freshly begun one included.
func TestSeedAtMatchesFreshEngine(t *testing.T) {
	rcfg := DefaultConfig(ModeRecord)
	rcfg.Time = &FakeTime{Base: 10, Step: 5}
	rcfg.Preempt = NewSeededPreemptor(2, 3, 9)
	rec, _ := NewEngine(rcfg)
	rec.Begin(&fakeHost{})
	th := newThread()
	for i := 0; i < 200; i++ {
		rec.AtYieldPoint(th)
		if i%10 == 0 {
			rec.ClockRead()
		}
	}
	tr := rec.End()
	replay := func() *Engine {
		cfg := DefaultConfig(ModeReplay)
		cfg.TraceIn = tr
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		e.Begin(&fakeHost{})
		return e
	}

	// Candidate seams: the reader's position at several points of a replay.
	probe, pth := replay(), newThread()
	seams := []trace.ReaderPos{{}}
	for i := 0; i < 200; i++ {
		probe.AtYieldPoint(pth)
		if i%10 == 0 {
			probe.ClockRead()
		}
		if i%37 == 0 {
			seams = append(seams, probe.r.(traceSeeker).Pos())
		}
	}
	tested := 0
	for _, pos := range seams {
		r, err := trace.NewReader(tr, 0)
		if err != nil {
			t.Fatal(err)
		}
		r.Seek(pos)
		first, ok := r.NextSwitch()
		if !ok || first < 2 {
			continue
		}
		b := first / 2
		tested++

		dirty, dth := replay(), newThread()
		for i := 0; i < 150; i++ {
			dirty.AtYieldPoint(dth)
		}
		dirty.liveClock, dirty.switchBit, dirty.err = false, true, errors.New("stale")
		before := seamStateOf(dirty)
		if err := dirty.SeedAt(pos, first); err == nil {
			t.Fatalf("seam %+v: checkpoint %d yields into a %d-yield interval accepted", pos, first, first)
		}
		if got := seamStateOf(dirty); got != before {
			t.Fatalf("seam %+v: refused checkpoint moved the engine: %+v, was %+v", pos, got, before)
		}
		if err := dirty.SeedAt(pos, b); err != nil {
			t.Fatal(err)
		}
		fresh := replay()
		if err := fresh.SeedAt(pos, b); err != nil {
			t.Fatal(err)
		}
		want := seamState{pos: r.Pos(), nyp: first - b, pending: true, liveClock: true}
		if got := seamStateOf(fresh); got != want {
			t.Fatalf("seam %+v: fresh engine at %+v, want %+v", pos, got, want)
		}
		if got := seamStateOf(dirty); got != want {
			t.Fatalf("seam %+v: moved engine at %+v, fresh one at %+v", pos, got, want)
		}
	}
	if tested < 3 {
		t.Fatalf("only %d seams sit inside a switch interval; test is vacuous", tested)
	}
	if err := rec.SeedAt(trace.ReaderPos{}, 0); err != ErrNotReplaying {
		t.Fatalf("SeedAt in record mode: %v", err)
	}
	r, err := trace.NewReader(tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(ModeReplay)
	cfg.TraceSrc = streamOnly{r}
	stream, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stream.Begin(&fakeHost{})
	if err := stream.SeedAt(trace.ReaderPos{}, 0); err != ErrNotSeekable {
		t.Fatalf("SeedAt over a streaming source: %v", err)
	}
}

// streamOnly hides a Reader's Pos and Seek, as a streaming source has none.
type streamOnly struct{ trace.Source }
