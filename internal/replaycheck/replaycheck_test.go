package replaycheck

import (
	"reflect"
	"strings"
	"testing"

	"dejavu/internal/bytecode"
	"dejavu/internal/workloads"
)

func tinyProg(out string) *bytecode.Program {
	return bytecode.MustAssemble(`
program tiny
class Main {
  method main 0 0 {
    sconst "` + out + `"
    prints
    halt
  }
}
entry Main.main
`)
}

func TestDigestDistinguishesExecutions(t *testing.T) {
	d1, d2, d3 := NewDigest(), NewDigest(), NewDigest()
	d1.OnStep(0, 1, 2, bytecode.Add)
	d2.OnStep(0, 1, 2, bytecode.Add)
	d3.OnStep(0, 1, 3, bytecode.Add) // different pc
	if d1.Sum() != d2.Sum() {
		t.Fatal("identical streams hashed differently")
	}
	if d1.Sum() == d3.Sum() {
		t.Fatal("different streams collided")
	}
	d1.OnOutput([]byte("x"))
	if d1.Sum() == d2.Sum() {
		t.Fatal("output not folded")
	}
	d2.OnSwitch(3)
	if d2.Switches() != 1 {
		t.Fatal("switch not counted")
	}
}

func TestDigestKeepsRecentEvents(t *testing.T) {
	d := NewDigest()
	d.KeepEvents = 3
	if recent := d.Recent(); recent != nil {
		t.Fatalf("empty digest: recent = %v", recent)
	}
	for i := 0; i < 10; i++ {
		d.OnStep(0, 0, i, bytecode.Nop)
	}
	recent := d.Recent()
	want := []string{"t0 m0 pc7 nop", "t0 m0 pc8 nop", "t0 m0 pc9 nop"}
	if !reflect.DeepEqual(recent, want) {
		t.Fatalf("recent = %v, want %v", recent, want)
	}
}

func TestCompareRunsDetectsOutputDiff(t *testing.T) {
	r1, err := Record(tinyProg("aaa"), Options{})
	if err != nil || r1.RunErr != nil {
		t.Fatal(err, r1.RunErr)
	}
	r2, err := Record(tinyProg("bbb"), Options{})
	if err != nil || r2.RunErr != nil {
		t.Fatal(err, r2.RunErr)
	}
	if err := CompareRuns(r1, r2); err == nil || !strings.Contains(err.Error(), "outputs differ") {
		t.Fatalf("expected output diff, got %v", err)
	}
}

func TestCompareRunsDetectsEventCountDiff(t *testing.T) {
	longer := bytecode.MustAssemble(`
program tiny
class Main {
  method main 0 0 {
    nop
    sconst "aaa"
    prints
    halt
  }
}
entry Main.main
`)
	r1, _ := Record(tinyProg("aaa"), Options{})
	r2, _ := Record(longer, Options{})
	if err := CompareRuns(r1, r2); err == nil || !strings.Contains(err.Error(), "event counts") {
		t.Fatalf("expected event count diff, got %v", err)
	}
}

func TestReplayIgnoresLiveSources(t *testing.T) {
	// Replay's time source and preemptor are poisoned; everything must
	// come from the trace.
	prog := bytecode.MustAssemble(`
program clocky
class Main {
  method main 0 0 {
    native "clock" 0
    print
    native "clock" 0
    print
    halt
  }
}
entry Main.main
`)
	rec, err := Record(prog, Options{TimeBase: 5000, TimeStep: 11})
	if err != nil || rec.RunErr != nil {
		t.Fatal(err, rec.RunErr)
	}
	rep, err := Replay(prog, rec.Trace, Options{})
	if err != nil || rep.RunErr != nil {
		t.Fatal(err, rep.RunErr)
	}
	if string(rep.Output) != string(rec.Output) {
		t.Fatalf("outputs differ: %q vs %q", rep.Output, rec.Output)
	}
	if !strings.Contains(string(rec.Output), "5000") {
		t.Fatalf("record output %q missing time base", rec.Output)
	}
}

func TestRunOffMatchesRecordSchedule(t *testing.T) {
	prog := bytecode.MustAssemble(`
program spin
class Main {
  static n
  method worker 1 2 {
    iconst 0
    store 1
  loop:
    load 1
    iconst 200
    cmpge
    jnz out
    gets Main.n
    iconst 1
    add
    puts Main.n
    load 1
    iconst 1
    add
    store 1
    jmp loop
  out:
    ret
  }
  method main 0 0 {
    iconst 1
    spawn Main.worker
    pop
    iconst 2
    spawn Main.worker
    pop
    ret
  }
}
entry Main.main
`)
	o := Options{Seed: 5}
	off, err := RunOff(prog, o)
	if err != nil || off.RunErr != nil {
		t.Fatal(err, off.RunErr)
	}
	rec, err := Record(prog, o)
	if err != nil || rec.RunErr != nil {
		t.Fatal(err, rec.RunErr)
	}
	// Same seed, same preemption schedule: identical executions.
	if off.Digest.Sum() != rec.Digest.Sum() {
		t.Fatal("off-mode schedule differs from record-mode schedule")
	}
}

// TestRunOffKeepsEvents: RunOff honours Options.KeepEvents like Record
// and Replay, so a failed off-vs-record digest check has an event tail
// on both sides to diagnose.
func TestRunOffKeepsEvents(t *testing.T) {
	o := Options{Seed: 5, KeepEvents: 8}
	off, err := RunOff(workloads.Registry["fig1ab"](), o)
	if err != nil || off.RunErr != nil {
		t.Fatal(err, off.RunErr)
	}
	rec, err := Record(workloads.Registry["fig1ab"](), o)
	if err != nil || rec.RunErr != nil {
		t.Fatal(err, rec.RunErr)
	}
	if got := off.Digest.Recent(); len(got) != 8 {
		t.Fatalf("RunOff kept %d events, want 8: %q", len(got), got)
	}
	if got, want := off.Digest.Recent(), rec.Digest.Recent(); !reflect.DeepEqual(got, want) {
		t.Fatalf("RunOff tail %q, Record tail %q", got, want)
	}
}

func TestCheckReplayReportsRecordFailure(t *testing.T) {
	bad := bytecode.MustAssemble(`
program bad
class Main {
  method main 0 0 {
    iconst 1
    iconst 0
    div
    halt
  }
}
entry Main.main
`)
	_, _, err := CheckReplay(bad, Options{})
	if err == nil || !strings.Contains(err.Error(), "record run") {
		t.Fatalf("expected record-run error, got %v", err)
	}
}

func TestHeapDigestStability(t *testing.T) {
	r1, _ := Record(tinyProg("zzz"), Options{})
	r2, _ := Record(tinyProg("zzz"), Options{})
	h1, u1 := HeapDigest(r1.VM)
	h2, u2 := HeapDigest(r2.VM)
	if h1 != h2 || u1 != u2 {
		t.Fatal("identical runs produced different heap digests")
	}
}
