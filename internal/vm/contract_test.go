package vm

// Tests for the checks the interpreter does not run. Every program that
// loads is verified, so no handler checks operand depth or stack
// headroom, and the engine-error, halt and thread-state checks run only
// after a control change. Every handler must keep the contract those
// omissions rely on, under every driver.

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"dejavu/internal/bytecode"
	"dejavu/internal/core"
	"dejavu/internal/threads"
	"dejavu/internal/workloads"
)

// contractViolations collects what the checking shims saw, keeping the
// first few messages.
type contractViolations struct {
	n     int
	first []string
	kinds map[*bytecode.Program][]bytecode.MethodFacts
}

func (c *contractViolations) add(format string, args ...any) {
	c.n++
	if len(c.first) < 5 {
		c.first = append(c.first, fmt.Sprintf(format, args...))
	}
}

// take returns the violations seen so far and clears them.
func (c *contractViolations) take() (int, []string) {
	n, first := c.n, c.first
	c.n, c.first = 0, nil
	return n, first
}

// inKinds returns the verifier's operand kinds on entry to each pc of
// prog, verified once per program.
func (c *contractViolations) inKinds(prog *bytecode.Program) []bytecode.MethodFacts {
	facts, ok := c.kinds[prog]
	if !ok {
		var err error
		facts, err = bytecode.Verify(prog, bytecode.VerifyConfig{Natives: NativeSignature, RecordKinds: true})
		if err != nil {
			panic(fmt.Sprintf("a loaded program fails verification: %v", err))
		}
		c.kinds[prog] = facts
	}
	return facts
}

// checkHandlerContract wraps every fastTab entry in a shim that checks
// the handler contract, and restores the table when the test ends:
//
//   - before the handler, the operand depth SP - (FP + FrameHeader +
//     NLocals) equals the verifier's depth at the pc, and every slot the
//     verifier types VRef or VPrim carries that tag. This is the oracle
//     for the depth checks no handler runs: a handler that pushes or
//     pops one slot too many or too few breaks it at the next pc;
//   - after a ctrlNext or ctrlJump return the thread still runs, the
//     program has not halted and the engine has not failed.
//
// Violations are collected rather than fatal, so no shim unwinds through
// a handler.
func checkHandlerContract(t *testing.T) *contractViolations {
	t.Helper()
	saved := fastTab
	t.Cleanup(func() { fastTab = saved })
	bad := &contractViolations{kinds: map[*bytecode.Program][]bytecode.MethodFacts{}}
	fastTab = make([]fastFn, len(saved))
	for tok, fn := range saved {
		if fn == nil {
			continue
		}
		fn := fn
		fastTab[tok] = func(vm *VM, th *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
			bad.checkOperands(vm, th, m, int(d.PC))
			ctrl, next, err := fn(vm, th, m, d)
			if err == nil && (ctrl == ctrlNext || ctrl == ctrlJump) &&
				(th.State != threads.Running || vm.halted || vm.eng.Err() != nil) {
				bad.add("%s pc %d (%v %v) returned control %d: thread state %v, halted %v, engine error %v",
					m.FullName(), d.PC, d.Op, d.Op2, ctrl, th.State, vm.halted, vm.eng.Err())
			}
			return ctrl, next, err
		}
	}
	return bad
}

// checkOperands holds th's operand stack on entry to pc of m to the
// verifier's kind vector there.
func (c *contractViolations) checkOperands(vm *VM, th *threads.Thread, m *bytecode.Method, pc int) {
	want := c.inKinds(vm.prog)[m.ID].InKinds[pc]
	if want == nil {
		c.add("%s pc %d: reached a pc the verifier found unreachable", m.FullName(), pc)
		return
	}
	base := th.FP + FrameHeader + m.NLocals
	if depth := th.SP - base; depth != len(want) {
		c.add("%s pc %d (%v): operand depth %d, verified %d", m.FullName(), pc, m.Code[pc].Op, depth, len(want))
		return
	}
	for i, k := range want {
		if tag := th.Tags[base+i]; (k == bytecode.VRef && !tag) || (k == bytecode.VPrim && tag) {
			c.add("%s pc %d (%v): operand %d tagged ref=%v, verified %v", m.FullName(), pc, m.Code[pc].Op, i, tag, k)
		}
	}
}

// driveVM runs m to the end with Run, with RunUntil legs of varying
// length, or with a Step loop.
func driveVM(m *VM, drive string) error {
	switch drive {
	case "run":
		return m.Run()
	case "step":
		return stepToEnd(m)
	}
	for i := 0; ; i++ {
		done, err := m.RunUntil(m.Events() + runUntilStrides[i%len(runUntilStrides)])
		if done || err != nil {
			return err
		}
	}
}

// replayVM builds a replaying VM of prog over tr, with cfg's settings
// and mod applied to the engine's.
func replayVM(t *testing.T, prog *bytecode.Program, tr []byte, cfg Config, mod func(*core.Config)) *VM {
	t.Helper()
	rcfg := core.DefaultConfig(core.ModeReplay)
	rcfg.ProgHash = ProgramHash(prog)
	rcfg.TraceIn = tr
	if mod != nil {
		mod(&rcfg)
	}
	eng, err := core.NewEngine(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Engine, cfg.IdleSleep = eng, 1
	m, err := New(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// clockLoopSrc reads the clock native in a loop: replayed over a trace
// cut short, a clock read fails in the engine without any switch.
const clockLoopSrc = `program clockloop
class Main {
  method main 0 1 {
    iconst 300
    store 0
  loop:
    load 0
    jz out
    native "clock" 0
    pop
    load 0
    iconst 1
    sub
    store 0
    jmp loop
  out:
    halt
  }
}
entry Main.main
`

// TestHandlerContract runs the golden workloads and seeds plus a
// stack-growing hashy, and generated programs, recorded and replayed,
// under Run, RunUntil and a Step loop, with every handler checked
// against the contract. Failing replays follow: a watchdog stall, which
// trips at a yield point that need not switch, and a clock read past the
// end of a trace cut short, which fails inside a native.
func TestHandlerContract(t *testing.T) {
	bad := checkHandlerContract(t)
	check := func(t *testing.T, what string) {
		t.Helper()
		if n, first := bad.take(); n > 0 {
			t.Errorf("%s: %d contract violations, first: %q", what, n, first)
		}
	}
	recordReplay := func(t *testing.T, prog *bytecode.Program, seed int64, input string) {
		var tr []byte
		for _, drive := range digestDrives {
			rec := recordVM(t, prog, seed, input, Config{})
			if err := driveVM(rec, drive); err != nil {
				t.Fatalf("record under %s: %v", drive, err)
			}
			tr = rec.Engine().End()
			check(t, "record under "+drive)
		}
		for _, drive := range digestDrives {
			if err := driveVM(replayVM(t, prog, tr, Config{}, nil), drive); err != nil {
				t.Fatalf("replay under %s: %v", drive, err)
			}
			check(t, "replay under "+drive)
		}
	}
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
		for _, seed := range []int64{1, 4, 9} {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				recordReplay(t, progs[name](), seed, input)
			})
		}
	}
	for seed := int64(1); seed <= 19; seed++ {
		t.Run(fmt.Sprintf("random/seed%d", seed), func(t *testing.T) {
			recordReplay(t, workloads.RandomProgram(seed), seed, "")
		})
	}

	t.Run("stall", func(t *testing.T) {
		for _, name := range []string{"sieve", "expr", "bank"} {
			prog := progs[name]()
			rec := recordVM(t, prog, 1, "", Config{})
			if err := rec.Run(); err != nil {
				t.Fatal(err)
			}
			tr := rec.Engine().End()
			for _, drive := range digestDrives {
				m := replayVM(t, prog, tr, Config{}, func(c *core.Config) { c.ProgressDeadline = time.Nanosecond })
				if err := driveVM(m, drive); !errors.Is(err, core.ErrStalled) {
					t.Fatalf("%s under %s: %v, want a stall", name, drive, err)
				}
				check(t, name+" stall under "+drive)
			}
		}
	})

	t.Run("cut-trace", func(t *testing.T) {
		prog := bytecode.MustAssemble(clockLoopSrc)
		rec := recordVM(t, prog, 1, "", Config{MaxEvents: 500})
		if err := rec.Run(); !errors.Is(err, ErrEventBudget) {
			t.Fatalf("record: %v, want the event budget", err)
		}
		tr := rec.Engine().End()
		for _, drive := range digestDrives {
			m := replayVM(t, prog, tr, Config{}, nil)
			err := driveVM(m, drive)
			var ve *VMError
			if err == nil || errors.As(err, &ve) || m.Engine().Err() == nil {
				t.Fatalf("under %s: %v, want an engine failure outside any trap", drive, err)
			}
			check(t, "cut trace under "+drive)
		}
	})
}

// unverifiedSrc fails VerifyProgram: every loop iteration leaves one more
// value on the operand stack, so the depth at the loop head is not
// fixed.
const unverifiedSrc = `program unverified
class Main {
  method pile 1 2 {
    iconst 0
    store 1
  loop:
    load 0
    load 0
    load 0
    add
    add
    load 1
    iconst 1
    add
    store 1
    load 1
    iconst 40
    cmplt
    jnz loop
    load 1
    print
    ret
  }
  method main 0 1 {
    iconst 5
    store 0
    iconst 1
    spawn Main.pile
    pop
  again:
    load 0
    call Main.pile
    load 0
    iconst 1
    sub
    store 0
    load 0
    jnz again
    halt
  }
}
entry Main.main
`

// TestUnverifiedProgramRefused: a program whose loop leaves its operand
// depth unfixed never loads: the verifier refuses the backedge that
// reaches the loop head at another depth.
func TestUnverifiedProgramRefused(t *testing.T) {
	checkRefused(t, bytecode.MustAssemble(unverifiedSrc), "Main.pile", 14)
}

// nativeLoopSrc is clockLoopSrc with the clock read replaced by another
// recorded native: call pushes its operands and calls it, leaving one
// result for the loop to pop.
func nativeLoopSrc(call string) string {
	return strings.Replace(strings.Replace(clockLoopSrc, `native "clock" 0`, call, 1), "  method main", `  method onEvent 2 2 {
    ret
  }
  method main`, 1)
}

// TestRecordedNativeDivergenceMessage replays a trace cut short by the
// event budget past its end, under Run, RunUntil and a Step loop. Every
// recorded native must then report the engine failure as the run's
// divergence, in clock's words, and not as a trap at the native's pc;
// the error must still unwrap to the engine's.
func TestRecordedNativeDivergenceMessage(t *testing.T) {
	calls := map[string]string{
		"clock":      `native "clock" 0`,
		"random":     `native "random" 0`,
		"nanotime":   `native "nanotime" 0`,
		"randrange":  "iconst 10\n    native \"randrange\" 1",
		"pollevents": "sconst \"Main.onEvent\"\n    iconst 3\n    native \"pollevents\" 2",
	}
	for name, call := range calls {
		t.Run(name, func(t *testing.T) {
			prog := bytecode.MustAssemble(nativeLoopSrc(call))
			rec := recordVM(t, prog, 1, "", Config{MaxEvents: 500})
			if err := rec.Run(); !errors.Is(err, ErrEventBudget) {
				t.Fatalf("record: %v, want the event budget", err)
			}
			tr := rec.Engine().End()
			for _, drive := range digestDrives {
				m := replayVM(t, prog, tr, Config{}, nil)
				err := driveVM(m, drive)
				eerr := m.Engine().Err()
				if err == nil || eerr == nil {
					t.Fatalf("under %s: run error %v, engine error %v, want both", drive, err, eerr)
				}
				want := fmt.Sprintf("vm: replay diverged after %d events: %v", m.Events(), eerr)
				if err.Error() != want {
					t.Errorf("under %s: %q, want %q", drive, err, want)
				}
				var ve *VMError
				if errors.As(err, &ve) || strings.Contains(err.Error(), "trap") {
					t.Errorf("under %s: %v reads as a trap", drive, err)
				}
				if !errors.Is(err, eerr) {
					t.Errorf("under %s: %v does not unwrap to the engine's %v", drive, err, eerr)
				}
			}
		})
	}
}
