package vm

// Tests for the checks runSlice no longer runs per instruction. The
// stack headroom of a verified program is reserved at frame entry, and
// the engine-error, halt and thread-state checks run only after a
// control change, so every handler must keep the contract those moves
// rely on. Programs that fail verification keep a boundary growth check,
// and must still run bit-identically under every driver.

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
}

func (c *contractViolations) add(format string, args ...any) {
	c.n++
	if len(c.first) < 5 {
		c.first = append(c.first, fmt.Sprintf(format, args...))
	}
}

// checkHandlerContract wraps every fastTab entry in a shim that checks
// the handler contract, and restores the table when the test ends:
//
//   - before the handler, a verified program has opHeadroom free stack
//     slots, also at a fused pair's inner boundary, which sits one slot
//     higher when the first component pushes (Load, IConst);
//   - after a ctrlNext or ctrlJump return the thread still runs, the
//     program has not halted and the engine has not failed.
//
// Violations are collected rather than fatal, so no shim unwinds through
// a handler.
func checkHandlerContract(t *testing.T) *contractViolations {
	t.Helper()
	saved := fastTab
	t.Cleanup(func() { fastTab = saved })
	bad := &contractViolations{}
	fastTab = make([]fastFn, len(saved))
	for tok, fn := range saved {
		if fn == nil {
			continue
		}
		fn := fn
		fastTab[tok] = func(vm *VM, th *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
			if vm.frameNeed != nil {
				need := opHeadroom
				if int(d.Next) > int(d.PC)+1 && (d.Op == bytecode.Load || d.Op == bytecode.IConst) {
					need++
				}
				if free := vm.h.Len(th.StackSeg) - th.SP; free < need {
					bad.add("%s pc %d (%v %v): %d free stack slots, want %d", m.FullName(), d.PC, d.Op, d.Op2, free, need)
				}
			}
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
// stack-growing hashy, recorded and replayed, under Run, RunUntil and a
// Step loop, with every handler checked against the contract. Failing
// replays follow: a watchdog stall, which trips at a yield point that
// need not switch, and a clock read past the end of a trace cut short,
// which fails inside a native.
func TestHandlerContract(t *testing.T) {
	bad := checkHandlerContract(t)
	progs := map[string]func() *bytecode.Program{
		"hashy": func() *bytecode.Program { return workloads.Hashy(20, 25) },
	}
	for name, prog := range workloads.Registry {
		progs[name] = prog
	}
	check := func(t *testing.T, what string) {
		t.Helper()
		if bad.n > 0 {
			t.Errorf("%s: %d contract violations, first: %q", what, bad.n, bad.first)
			*bad = contractViolations{}
		}
	}
	for _, name := range append(workloads.Names(), "hashy") {
		input := ""
		if name == "sumlines" {
			input = "5\n15\n22\n\n"
		}
		for _, seed := range []int64{1, 4, 9} {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				prog := progs[name]()
				var tr []byte
				for _, drive := range digestDrives {
					rec := recordVM(t, prog, seed, input, Config{})
					if rec.frameNeed == nil {
						t.Fatal("corpus program failed verification: the headroom check would be vacuous")
					}
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
			})
		}
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
