package vm

import (
	"fmt"
	"testing"

	"dejavu/internal/bytecode"
	"dejavu/internal/workloads"
)

// staleMirror returns a description of the first thread whose VM_Thread
// mirror words disagree with its live fields, or "" when every mirror is
// current.
func staleMirror(m *VM) string {
	for _, th := range m.sched.Threads() {
		if th.MirrorObj == 0 {
			continue
		}
		got := [4]uint64{
			m.h.LoadWord(th.MirrorObj, MThreadFP),
			m.h.LoadWord(th.MirrorObj, MThreadSP),
			m.h.LoadWord(th.MirrorObj, MThreadState),
			m.h.LoadWord(th.MirrorObj, MThreadYields),
		}
		want := [4]uint64{uint64(int64(th.FP)), uint64(int64(th.SP)), uint64(th.State), th.YieldCount}
		if got != want {
			return fmt.Sprintf("thread %d mirror holds fp/sp/state/yields %v, live %v", th.ID, got, want)
		}
	}
	return ""
}

// driveCheckingMirrors runs m to the end under drive and checks every
// mirror wherever a reader can look: after every Step, at every RunUntil
// stop, and after Run.
func driveCheckingMirrors(t *testing.T, m *VM, mode, drive string) {
	t.Helper()
	check := func(where string) {
		t.Helper()
		if s := staleMirror(m); s != "" {
			t.Fatalf("%s under %s, %s at event %d: %s", mode, drive, where, m.Events(), s)
		}
	}
	switch drive {
	case "run":
		if err := m.Run(); err != nil {
			t.Fatalf("%s under run: %v", mode, err)
		}
		check("end")
	case "step":
		for {
			done, err := m.Step()
			if err != nil {
				t.Fatalf("%s under step: %v", mode, err)
			}
			check("step")
			if done {
				return
			}
		}
	default:
		for i := 0; ; i++ {
			done, err := m.RunUntil(m.Events() + runUntilStrides[i%len(runUntilStrides)])
			if err != nil {
				t.Fatalf("%s under rununtil: %v", mode, err)
			}
			check("stop")
			if done {
				return
			}
		}
	}
}

// expirySrc expires a timed wait while another thread owns the monitor.
// Each of the owner's voluntary yields dispatches, and the dispatch reads
// the clock, so the waiter's timer runs out there and the waiter moves to
// the entry queue: a State write no ready-queue grant follows.
const expirySrc = `program expiry
class Main {
  static lock ref
  method waiter 0 0 {
    gets Main.lock
    monenter
    gets Main.lock
    iconst 30
    timedwait
    gets Main.lock
    monexit
    ret
  }
  method main 0 1 {
    new Main
    puts Main.lock
    spawn Main.waiter
    pop
    yield
    gets Main.lock
    monenter
    iconst 20
    store 0
  spin:
    yield
    load 0
    iconst 1
    sub
    store 0
    load 0
    jnz spin
    gets Main.lock
    monexit
    yield
    halt
  }
}
entry Main.main
`

// TestMirrorsMatchThreads holds every thread's heap mirror to the
// thread's live FP, SP, State and yield count at every observation point
// of every driver, record and replay. Mirrors are flushed for the
// running thread and for the threads the scheduler lists as changed, so
// a State write the list misses (a monitor grant, a timer expiry) leaves
// a stale mirror here.
func TestMirrorsMatchThreads(t *testing.T) {
	extra := map[string]func() *bytecode.Program{
		"hashy":  func() *bytecode.Program { return workloads.Hashy(20, 25) },
		"expiry": func() *bytecode.Program { return bytecode.MustAssemble(expirySrc) },
	}
	for _, name := range []string{"bank", "prodcons", "philosophers", "server", "fig1cd", "sleepy", "hashy", "expiry"} {
		build := workloads.Registry[name]
		if build == nil {
			build = extra[name]
		}
		for _, seed := range []int64{1, 4, 9} {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				prog := build()
				var tr []byte
				for _, drive := range digestDrives {
					rec := recordVM(t, prog, seed, "", Config{})
					driveCheckingMirrors(t, rec, "record", drive)
					tr = rec.Engine().End()
				}
				for _, drive := range digestDrives {
					driveCheckingMirrors(t, replayVM(t, prog, tr, Config{}, nil), "replay", drive)
				}
			})
		}
	}
}
