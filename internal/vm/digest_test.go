package vm

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"dejavu/internal/bytecode"
	"dejavu/internal/core"
	"dejavu/internal/workloads"
)

// stepLog is a per-event observer that keeps every OnStep it sees.
type stepLog struct{ steps [][4]int }

func (l *stepLog) OnStep(threadID, methodID, pc int, op bytecode.Opcode) {
	l.steps = append(l.steps, [4]int{threadID, methodID, pc, int(op)})
}
func (l *stepLog) OnOutput([]byte) {}
func (l *stepLog) OnSwitch(int)    {}

// digestDrives are the ways a VM is driven: Run, a Step loop, and
// RunUntil legs of varying length (each leg's stop is checked by
// checkDigestPaths).
var digestDrives = []string{"run", "step", "rununtil"}

// runUntilStrides are the RunUntil leg lengths, cycled.
var runUntilStrides = []uint64{1, 2, 3, 1, 5, 8, 13, 1, 21, 34, 55, 89, 144}

// checkDigestPaths drives three VMs of one program in lockstep under
// every drive: one folding its digest in place (KeepEvents == 0), one
// serving a tail-keeping digest at dispatch (KeepEvents > 0), and one
// serving a stepLog. At every RunUntil stop and at the end, the two
// digests must agree on Sum and Switches, the three VMs on Events and the
// run error, and the log must hold exactly Events() steps. The log's
// (thread, method, pc, opcode) sequence must be the same under every
// drive.
func checkDigestPaths(t *testing.T, mk func(t *testing.T, obs Observer) *VM) {
	t.Helper()
	var first [][4]int
	for _, drive := range digestDrives {
		inPlace, kept, log := NewDigest(), NewDigest(), &stepLog{}
		kept.KeepEvents = 1
		a, b, c := mk(t, inPlace), mk(t, kept), mk(t, log)
		if a.dig != inPlace || a.stepObs != nil {
			t.Fatalf("%s: a digest without a tail is not folded in place", drive)
		}
		if b.dig != nil || b.stepObs != Observer(kept) || c.stepObs != Observer(log) {
			t.Fatalf("%s: a per-event observer is not served at dispatch", drive)
		}
		check := func(what string, errs [3]error) {
			t.Helper()
			if a.Events() != b.Events() || a.Events() != c.Events() {
				t.Fatalf("%s %s: events %d (in place), %d (tail), %d (log)",
					drive, what, a.Events(), b.Events(), c.Events())
			}
			for _, err := range errs[1:] {
				if fmt.Sprint(err) != fmt.Sprint(errs[0]) {
					t.Fatalf("%s %s: errors differ: %v vs %v", drive, what, errs[0], err)
				}
			}
			if inPlace.Sum() != kept.Sum() {
				t.Fatalf("%s %s at %d events: in-place digest %#x, observer digest %#x",
					drive, what, a.Events(), inPlace.Sum(), kept.Sum())
			}
			if inPlace.Switches() != kept.Switches() {
				t.Fatalf("%s %s: switches %d in place, %d observed", drive, what,
					inPlace.Switches(), kept.Switches())
			}
			if uint64(len(log.steps)) != c.Events() {
				t.Fatalf("%s %s: %d OnStep calls for %d events", drive, what, len(log.steps), c.Events())
			}
		}
		switch drive {
		case "run":
			check("end", [3]error{a.Run(), b.Run(), c.Run()})
		case "step":
			check("end", [3]error{stepToEnd(a), stepToEnd(b), stepToEnd(c)})
		case "rununtil":
			for i := 0; ; i++ {
				target := a.Events() + runUntilStrides[i%len(runUntilStrides)]
				var errs [3]error
				done := false
				for j, m := range []*VM{a, b, c} {
					d, err := m.RunUntil(target)
					done, errs[j] = done || d, err
				}
				check(fmt.Sprintf("leg %d to %d", i, target), errs)
				if done {
					break
				}
			}
		}
		if len(log.steps) == 0 {
			t.Fatalf("%s: no events ran", drive)
		}
		if first == nil {
			first = log.steps
		} else if !reflect.DeepEqual(log.steps, first) {
			t.Fatalf("%s: OnStep sequence differs from %s's", drive, digestDrives[0])
		}
	}
}

// recordVM builds a recording VM with replaycheck's default schedule for
// seed: seeded preemption every 5 to 60 yield points and a fake clock.
func recordVM(t *testing.T, prog *bytecode.Program, seed int64, input string, cfg Config) *VM {
	t.Helper()
	ecfg := core.DefaultConfig(core.ModeRecord)
	ecfg.ProgHash = ProgramHash(prog)
	ecfg.Preempt = core.NewSeededPreemptor(seed, 5, 60)
	ecfg.Time = &core.FakeTime{Base: 1_000_000, Step: 3}
	if input != "" {
		ecfg.Input = bytes.NewBufferString(input)
	}
	eng, err := core.NewEngine(ecfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Engine, cfg.HostRand, cfg.IdleSleep = eng, seed, 1
	m, err := New(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestDigestPathsAgree holds the in-place digest fold to the observer
// digest, and the dispatch-site OnStep reports to the event count, over
// the golden workloads and seeds (plus a stack-growing hashy), the same
// runs cut short by a MaxEvents budget, the trap-parity programs, a
// callback-heavy native program, and a run whose stack growth fails;
// the trap programs the verifier refuses must not load.
func TestDigestPathsAgree(t *testing.T) {
	progs := map[string]func() *bytecode.Program{
		"hashy": func() *bytecode.Program { return workloads.Hashy(20, 25) },
	}
	for name, prog := range workloads.Registry {
		progs[name] = prog
	}
	for _, name := range append(workloads.Names(), "hashy") {
		input := ""
		if name == "sumlines" {
			input = "5\n15\n22\n\n"
		}
		runs := []struct {
			seed   int64
			budget uint64
		}{{1, 0}, {4, 0}, {9, 0}, {1, 997}}
		for _, r := range runs {
			t.Run(fmt.Sprintf("%s/seed%d/budget%d", name, r.seed, r.budget), func(t *testing.T) {
				checkDigestPaths(t, func(t *testing.T, obs Observer) *VM {
					return recordVM(t, progs[name](), r.seed, input, Config{Observer: obs, MaxEvents: r.budget})
				})
			})
		}
	}
	for _, tc := range trapParityCases {
		t.Run("trap/"+tc.name, func(t *testing.T) {
			checkDigestPaths(t, func(t *testing.T, obs Observer) *VM {
				return trapParityVM(t, tc.src, tc.tool, obs)
			})
		})
	}
	for _, tc := range refusedTrapCases {
		t.Run("trap/"+tc.name, func(t *testing.T) {
			checkRefused(t, asm(t, tc.src), tc.method, tc.pc)
		})
	}
	t.Run("callbacks", func(t *testing.T) {
		p := asm(t, `
program callbacks
class Main {
  static count
  method onEvent 2 2 {
    gets Main.count
    load 1
    add
    iconst 3
    mul
    puts Main.count
    ret
  }
  method main 0 1 {
    iconst 40
    store 0
  again:
    sconst "Main.onEvent"
    iconst 6
    native "pollevents" 2
    pop
    load 0
    iconst 1
    sub
    store 0
    load 0
    jnz again
    gets Main.count
    print
    halt
  }
}
entry Main.main
`)
		checkDigestPaths(t, func(t *testing.T, obs Observer) *VM {
			return recordVM(t, p, 7, "", Config{Observer: obs})
		})
		m := recordVM(t, p, 7, "", Config{})
		if err := m.Run(); err != nil || bytes.Equal(m.Output(), []byte("0\n")) {
			t.Fatalf("no callback ran: output %q, err %v", m.Output(), err)
		}
	})
	t.Run("failed stack growth", func(t *testing.T) {
		// A loop that pushes without popping fails verification, so it
		// never loads. Stack growth fails in a verified program too: at a
		// call, when the heap cap refuses a deep recursion's frame.
		checkRefused(t, asm(t, `
program pusher
class Main {
  method main 0 0 {
  loop:
    iconst 1
    jmp loop
  }
}
entry Main.main
`), "Main.main", 1)
		p := asm(t, `
program recurse
class Main {
  method f 1 1 {
    iconst 1
    call Main.f
    ret
  }
  method main 0 0 {
    iconst 1
    call Main.f
    halt
  }
}
entry Main.main
`)
		cfg := Config{HeapBytes: 8 * 1024, MaxHeapBytes: 64 * 1024}
		checkDigestPaths(t, func(t *testing.T, obs Observer) *VM {
			cfg := cfg
			cfg.Observer = obs
			return recordVM(t, p, 1, "", cfg)
		})
		m := recordVM(t, p, 1, "", cfg)
		if err := m.Run(); err == nil || !strings.Contains(err.Error(), "heap limit") || m.StackGrows() == 0 {
			t.Fatalf("want a failed stack growth, got %v after %d growths", err, m.StackGrows())
		}
	})
}
