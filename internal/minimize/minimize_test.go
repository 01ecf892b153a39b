package minimize_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"testing"
	"time"

	"dejavu/internal/bytecode"
	"dejavu/internal/core"
	"dejavu/internal/minimize"
	"dejavu/internal/obs"
	"dejavu/internal/replaycheck"
	"dejavu/internal/tools"
	"dejavu/internal/trace"
	"dejavu/internal/vm"
	"dejavu/internal/workloads"
)

// windowProg builds a check-then-act victim: a flipper thread repeatedly
// opens a window where the shared divisor is zero, and the main thread
// divides by it in a loop. The division traps only under a schedule that
// preempts main into the flipper AND preempts the flipper back out inside
// the window — a genuinely schedule-dependent fault whose minimal repro
// is a specific pair of switches.
func windowProg() *bytecode.Program {
	b := bytecode.NewBuilder("window")
	main := b.Class("Main")
	main.Static("d", false)

	flip := main.Method("flip", 1, 3)
	flip.Const(40).Emit(bytecode.Store, 1)
	flip.Label("f")
	flip.Emit(bytecode.Load, 1).Branch(bytecode.Jz, "fe")
	flip.Const(0).PutStatic(main, "d")
	// An inner spin keeps backward branches — the engine's yield points —
	// inside the zero window, so a preemption can actually strike there.
	flip.Const(6).Emit(bytecode.Store, 2)
	flip.Label("w")
	flip.Emit(bytecode.Load, 2).Branch(bytecode.Jz, "we")
	flip.Emit(bytecode.Load, 2).Const(1).Emit(bytecode.Sub).Emit(bytecode.Store, 2)
	flip.Branch(bytecode.Jmp, "w")
	flip.Label("we")
	flip.Const(1).PutStatic(main, "d")
	// A longer safe stretch between windows: most preemptions land here,
	// so recordings accumulate irrelevant switches for ddmin to shed.
	flip.Const(24).Emit(bytecode.Store, 2)
	flip.Label("s")
	flip.Emit(bytecode.Load, 2).Branch(bytecode.Jz, "se")
	flip.Emit(bytecode.Load, 2).Const(1).Emit(bytecode.Sub).Emit(bytecode.Store, 2)
	flip.Branch(bytecode.Jmp, "s")
	flip.Label("se")
	flip.Emit(bytecode.Load, 1).Const(1).Emit(bytecode.Sub).Emit(bytecode.Store, 1)
	flip.Branch(bytecode.Jmp, "f")
	flip.Label("fe")
	flip.Emit(bytecode.Ret)

	mb := main.Method("main", 0, 2)
	mb.Const(1).PutStatic(main, "d")
	mb.Emit(bytecode.New, int32(main.ID())).Emit(bytecode.Store, 0)
	mb.Emit(bytecode.Load, 0).SpawnM(flip).Emit(bytecode.Pop)
	mb.Const(400).Emit(bytecode.Store, 1)
	mb.Label("loop")
	mb.Emit(bytecode.Load, 1).Branch(bytecode.Jz, "done")
	mb.Const(100).GetStatic(main, "d").Emit(bytecode.Div).Emit(bytecode.Pop)
	mb.Emit(bytecode.Load, 1).Const(1).Emit(bytecode.Sub).Emit(bytecode.Store, 1)
	mb.Branch(bytecode.Jmp, "loop")
	mb.Label("done")
	mb.Emit(bytecode.Halt)
	b.Entry(mb)
	return b.MustProgram()
}

// raceRecordOptions matches the E14 configuration that reliably exposes
// the Fig. 1 race under seeded preemption.
func raceRecordOptions() replaycheck.Options {
	return replaycheck.Options{Seed: 4, PreemptMin: 2, PreemptMax: 10, HeapBytes: 1 << 22}
}

// source opens a recorded trace of either container kind for prog.
func source(t *testing.T, prog *bytecode.Program, raw []byte) *trace.Reader {
	t.Helper()
	r, err := trace.NewReader(raw, vm.ProgramHash(prog))
	if err != nil {
		t.Fatalf("open trace: %v", err)
	}
	return r
}

// TestSwitchPositionsReproduce pins the keystone the minimizer stands on:
// a ScriptedPreemptor fired at the positions extracted from a recording
// re-produces that recording bit for bit.
func TestSwitchPositionsReproduce(t *testing.T) {
	prog := workloads.Fig1AB()
	rec, err := replaycheck.Record(prog, raceRecordOptions())
	if err != nil {
		t.Fatalf("record: %v", err)
	}
	positions, err := minimize.SwitchPositions(source(t, prog, rec.Trace))
	if err != nil {
		t.Fatalf("SwitchPositions: %v", err)
	}
	if len(positions) == 0 {
		t.Fatalf("no switches recorded; the race setup is broken")
	}
	// A streamed recording of the same run yields the same positions.
	var streamed bytes.Buffer
	if _, err := replaycheck.RecordTo(prog, &streamed, raceRecordOptions()); err != nil {
		t.Fatalf("record streamed: %v", err)
	}
	got, err := minimize.SwitchPositions(source(t, prog, streamed.Bytes()))
	if err != nil || fmt.Sprint(got) != fmt.Sprint(positions) {
		t.Fatalf("streamed positions %v (%v), want %v", got, err, positions)
	}
	o := raceRecordOptions()
	o.TweakEngine = func(cfg *core.Config) {
		cfg.Preempt = core.NewScriptedPreemptor(positions)
	}
	rec2, err := replaycheck.Record(prog, o)
	if err != nil {
		t.Fatalf("scripted record: %v", err)
	}
	if rec2.Digest.Sum() != rec.Digest.Sum() || rec2.Events != rec.Events {
		t.Fatalf("scripted re-record diverged: %x/%d vs %x/%d",
			rec2.Digest.Sum(), rec2.Events, rec.Digest.Sum(), rec.Events)
	}
}

// reproducesRaceAt independently re-checks a candidate fire set with the
// same two-stage discipline the minimizer uses — deliberately re-derived
// here so the property test does not trust the code under test.
func reproducesRaceAt(prog *bytecode.Program, base replaycheck.Options, positions []uint64, site string) bool {
	o := base
	o.TweakEngine = func(cfg *core.Config) {
		cfg.Preempt = core.NewScriptedPreemptor(positions)
	}
	rec, err := replaycheck.Record(prog, o)
	if err != nil || rec.RunErr != nil {
		return false
	}
	rd := tools.NewRaceDetector()
	ro := replaycheck.Options{HeapBytes: base.HeapBytes, ProgressDeadline: 2 * time.Second}
	ro.TweakVM = func(cfg *vm.Config) {
		cfg.MemHook = rd
		cfg.SyncHook = rd
	}
	rep, err := replaycheck.Replay(prog, rec.Trace, ro)
	if err != nil || rep.RunErr != nil || rep.Digest.Sum() != rec.Digest.Sum() {
		return false
	}
	for _, r := range rd.Races() {
		if fmt.Sprintf("slot%d", r.Slot) == site {
			return true
		}
	}
	return false
}

// TestMinimizeRaceSchedule is the ddmin property test from the satellite:
// the minimized schedule still reproduces the race, and removing any
// single kept switch no longer does (1-minimality).
func TestMinimizeRaceSchedule(t *testing.T) {
	prog := workloads.Fig1AB()
	rec, err := replaycheck.Record(prog, raceRecordOptions())
	if err != nil || rec.RunErr != nil {
		t.Fatalf("record: %v %v", err, rec.RunErr)
	}
	reg := obs.NewRegistry()
	res, err := minimize.Run(prog, source(t, prog, rec.Trace), minimize.Options{
		Record: raceRecordOptions(),
		Obs:    reg,
		Log:    t.Logf,
	})
	if err != nil {
		t.Fatalf("minimize: %v", err)
	}
	rep := res.Report
	if rep.Fault != "race" {
		t.Fatalf("target fault %q, want race", rep.Fault)
	}
	if rep.KeptSwitches >= rep.OriginalSwitches {
		t.Fatalf("no reduction: kept %d of %d", rep.KeptSwitches, rep.OriginalSwitches)
	}
	if rep.KeptSwitches != len(res.Positions) || len(rep.Kept) != rep.KeptSwitches {
		t.Fatalf("report inconsistent: kept=%d positions=%d sites=%d",
			rep.KeptSwitches, len(res.Positions), len(rep.Kept))
	}
	t.Logf("race minimized %d -> %d switches (%.0f%%) in %d candidates",
		rep.OriginalSwitches, rep.KeptSwitches, rep.ReductionPct, rep.Candidates)

	// The minimized schedule reproduces...
	if !reproducesRaceAt(prog, raceRecordOptions(), res.Positions, rep.Site) {
		t.Fatalf("minimized schedule does not reproduce the race at %s", rep.Site)
	}
	// ...and it is 1-minimal: every leave-one-out subset does not.
	for i := range res.Positions {
		loo := make([]uint64, 0, len(res.Positions)-1)
		loo = append(loo, res.Positions[:i]...)
		loo = append(loo, res.Positions[i+1:]...)
		if reproducesRaceAt(prog, raceRecordOptions(), loo, rep.Site) {
			t.Fatalf("not 1-minimal: dropping switch %d (position %d) still reproduces",
				i, res.Positions[i])
		}
	}
	// Every kept switch carries a usable source site.
	for i, sw := range rep.Kept {
		if sw.Position == 0 || sw.Method == "" {
			t.Fatalf("kept switch %d has no site: %+v", i, sw)
		}
	}
	// The reduced trace replays the repro on its own.
	rd := tools.NewRaceDetector()
	ro := replaycheck.Options{HeapBytes: 1 << 22, ProgressDeadline: 2 * time.Second}
	ro.TweakVM = func(cfg *vm.Config) { cfg.MemHook = rd; cfg.SyncHook = rd }
	if _, err := replaycheck.Replay(prog, res.Trace, ro); err != nil {
		t.Fatalf("reduced trace replay: %v", err)
	}
	found := false
	for _, r := range rd.Races() {
		if fmt.Sprintf("slot%d", r.Slot) == rep.Site {
			found = true
		}
	}
	if !found {
		t.Fatalf("reduced trace replay missed the race at %s", rep.Site)
	}
	// The report is JSON-clean for the CLI.
	if _, err := json.Marshal(rep); err != nil {
		t.Fatalf("report marshal: %v", err)
	}
	if v := reg.Counter("dv_minimize_candidates_total").Value(); v == 0 {
		t.Fatalf("dv_minimize_candidates_total not incremented")
	}
}

// reproducesTrapAt independently re-checks a candidate fire set against a
// trap signature, with the same record-then-replay-confirm discipline.
func reproducesTrapAt(prog *bytecode.Program, base replaycheck.Options, positions []uint64, site string) bool {
	o := base
	o.TweakEngine = func(cfg *core.Config) {
		cfg.Preempt = core.NewScriptedPreemptor(positions)
	}
	rec, err := replaycheck.Record(prog, o)
	if err != nil {
		return false
	}
	var ve *vm.VMError
	if !errors.As(rec.RunErr, &ve) || fmt.Sprintf("%s:%d", ve.Method, ve.PC) != site {
		return false
	}
	ro := replaycheck.Options{HeapBytes: base.HeapBytes, MaxEvents: base.MaxEvents, ProgressDeadline: 2 * time.Second}
	rep, err := replaycheck.Replay(prog, rec.Trace, ro)
	if err != nil || rep.Digest.Sum() != rec.Digest.Sum() {
		return false
	}
	var ve2 *vm.VMError
	return errors.As(rep.RunErr, &ve2) && ve2.Method == ve.Method && ve2.PC == ve.PC
}

// TestMinimizeTrapSchedule minimizes a genuinely schedule-dependent trap:
// the division only faults when one preemption lands main inside the
// flipper and a second lands the flipper inside its zero window. Seed 55
// records 46 switches before tripping; the minimal repro is the pair.
func TestMinimizeTrapSchedule(t *testing.T) {
	prog := windowProg()
	o := replaycheck.Options{Seed: 55, PreemptMin: 2, PreemptMax: 10, HeapBytes: 1 << 20}
	rec, err := replaycheck.Record(prog, o)
	if err != nil {
		t.Fatalf("record: %v", err)
	}
	var ve *vm.VMError
	if !errors.As(rec.RunErr, &ve) {
		t.Fatalf("seed 55 did not trap: %v", rec.RunErr)
	}
	res, err := minimize.Run(prog, source(t, prog, rec.Trace), minimize.Options{Record: o, Log: t.Logf})
	if err != nil {
		t.Fatalf("minimize: %v", err)
	}
	rep := res.Report
	if rep.Fault != "trap" || rep.Site == "" {
		t.Fatalf("fault %q site %q, want a trap with a site", rep.Fault, rep.Site)
	}
	if rep.KeptSwitches != 2 {
		t.Fatalf("kept %d switches, want the minimal pair (report: %+v)", rep.KeptSwitches, rep)
	}
	if rep.ReductionPct < 50 {
		t.Fatalf("reduction %.0f%%, want >= 50%%", rep.ReductionPct)
	}
	t.Logf("trap at %s minimized %d -> %d switches (%.0f%%) in %d candidates",
		rep.Site, rep.OriginalSwitches, rep.KeptSwitches, rep.ReductionPct, rep.Candidates)

	// Property: the pair reproduces; either switch alone does not.
	if !reproducesTrapAt(prog, o, res.Positions, rep.Site) {
		t.Fatalf("minimized pair does not reproduce the trap")
	}
	for i := range res.Positions {
		loo := make([]uint64, 0, 1)
		loo = append(loo, res.Positions[:i]...)
		loo = append(loo, res.Positions[i+1:]...)
		if reproducesTrapAt(prog, o, loo, rep.Site) {
			t.Fatalf("not 1-minimal: position %d alone reproduces", loo[0])
		}
	}
	if reproducesTrapAt(prog, o, nil, rep.Site) {
		t.Fatalf("empty schedule reproduces; the workload is not schedule-dependent")
	}
	// The kept switches carry the sites of the preempted instructions —
	// both inside the two loops whose interleaving causes the fault.
	for i, sw := range rep.Kept {
		if sw.Method == "" || sw.Position == 0 {
			t.Fatalf("kept switch %d missing site: %+v", i, sw)
		}
		t.Logf("kept switch %d: position %d at %s pc=%d line=%d (thread %d)",
			i, sw.Position, sw.Method, sw.PC, sw.Line, sw.Thread)
	}
}

// TestMinimizeBudgetToEmpty pins the degenerate end of the lattice: a
// fault that needs no preemptions at all (an event-budget stop) minimizes
// to the empty schedule.
func TestMinimizeBudgetToEmpty(t *testing.T) {
	prog := workloads.Events(200)
	o := replaycheck.Options{
		Seed: 11, PreemptMin: 2, PreemptMax: 9,
		HeapBytes: 1 << 17, MaxEvents: 5000, KeepEvents: 64,
	}
	rec, err := replaycheck.Record(prog, o)
	if err != nil {
		t.Fatalf("record: %v", err)
	}
	res, err := minimize.Run(prog, source(t, prog, rec.Trace), minimize.Options{Record: o})
	if err != nil {
		t.Fatalf("minimize: %v", err)
	}
	if res.Report.Fault != "budget" {
		t.Fatalf("fault %q, want budget", res.Report.Fault)
	}
	if len(res.Positions) != 0 || res.Report.KeptSwitches != 0 {
		t.Fatalf("budget stop should minimize to the empty schedule, kept %v", res.Positions)
	}
	if res.Report.OriginalSwitches == 0 {
		t.Fatalf("recording had no switches; the workload setup is broken")
	}
}

// TestMinimizeNoFault rejects recordings with nothing to minimize. The
// bank workload is lock-disciplined, so even under preemption the run is
// clean and the lockset detector stays quiet (E14's control case).
func TestMinimizeNoFault(t *testing.T) {
	prog := workloads.Bank(2, 4, 50)
	o := replaycheck.Options{Seed: 4, PreemptMin: 2, PreemptMax: 10, HeapBytes: 1 << 22}
	rec, err := replaycheck.Record(prog, o)
	if err != nil || rec.RunErr != nil {
		t.Fatalf("record: %v %v", err, rec.RunErr)
	}
	if _, err := minimize.Run(prog, source(t, prog, rec.Trace), minimize.Options{Record: o}); err == nil {
		t.Fatalf("want an error for a fault-free recording")
	}
}
