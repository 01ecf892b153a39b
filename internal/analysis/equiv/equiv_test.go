package equiv_test

import (
	"fmt"
	"strings"
	"testing"

	"dejavu/internal/analysis/equiv"
	"dejavu/internal/bytecode"
	"dejavu/internal/vm"
	"dejavu/internal/workloads"
)

func check(t *testing.T, a, b *bytecode.Program) *equiv.Result {
	t.Helper()
	return equiv.Check(a, b, vm.NativeSignature)
}

// clone round-trips a program through the binary image codec, yielding an
// independent deep copy.
func clone(t *testing.T, p *bytecode.Program) *bytecode.Program {
	t.Helper()
	c, err := bytecode.DecodeImage(bytecode.EncodeImage(p))
	if err != nil {
		t.Fatalf("clone %s: %v", p.Name, err)
	}
	return c
}

// TestSelfEquivalenceCorpus: every workload is equivalent to itself, and
// the check certifies a nonzero number of observable events.
func TestSelfEquivalenceCorpus(t *testing.T) {
	for _, name := range workloads.Names() {
		p := workloads.Registry[name]()
		res := check(t, p, clone(t, p))
		if !res.Equivalent {
			t.Errorf("%s not self-equivalent:\n%s", name, res.Report.Text())
		}
		if res.EventsChecked == 0 {
			t.Errorf("%s: no events certified", name)
		}
	}
}

// twoLoops builds a program with a yield-carrying loop, a monitor
// critical section, and an output, with room for the mutations below.
func twoLoops() *bytecode.Program {
	b := bytecode.NewBuilder("mut")
	cb := b.Class("Main")
	cb.Static("lock", true)
	cb.Static("sum", false)
	main := cb.Method("main", 0, 2)
	main.Line(1).Emit(bytecode.New, int32(cb.ID())).PutStatic(cb, "lock")
	main.Line(2).Const(10).Emit(bytecode.Store, 0)
	main.Label("loop")
	main.Line(3).Emit(bytecode.Load, 0).Const(1).Emit(bytecode.Sub).Emit(bytecode.Store, 0)
	main.Line(4).GetStatic(cb, "lock").Emit(bytecode.MonEnter)
	main.Line(5).GetStatic(cb, "sum").Emit(bytecode.Load, 0).Emit(bytecode.Add).PutStatic(cb, "sum")
	main.Line(6).GetStatic(cb, "lock").Emit(bytecode.MonExit)
	main.Line(7).Emit(bytecode.Load, 0).Branch(bytecode.Jnz, "loop")
	main.Line(8).GetStatic(cb, "sum").Emit(bytecode.Print)
	main.Line(9).Emit(bytecode.Halt)
	b.Entry(main)
	return b.MustProgram()
}

// mutate applies f to a clone of p's entry method code and returns it.
func mutate(t *testing.T, p *bytecode.Program, f func(code []bytecode.Instr) []bytecode.Instr) *bytecode.Program {
	t.Helper()
	c := clone(t, p)
	m := c.Methods[c.Entry]
	m.Code = f(append([]bytecode.Instr(nil), m.Code...))
	for len(m.Lines) < len(m.Code) {
		m.Lines = append(m.Lines, 0)
	}
	m.Lines = m.Lines[:len(m.Code)]
	return c
}

// TestMutationDroppedYieldPoint: a "pass" that rewrites the backward loop
// branch into a forward skip (dropping the yield point the clock counts)
// must be refused, with the finding localized to the loop.
func TestMutationDroppedYieldPoint(t *testing.T) {
	p := twoLoops()
	bad := mutate(t, p, func(code []bytecode.Instr) []bytecode.Instr {
		// Unroll the 10-iteration loop once and fall through: the backward
		// Jnz becomes a Pop, erasing its taken-edge yield event.
		for i, in := range code {
			if in.Op == bytecode.Jnz {
				code[i] = bytecode.Instr{Op: bytecode.Pop}
			}
		}
		return code
	})
	res := check(t, p, bad)
	if res.Equivalent {
		t.Fatal("dropped yield point certified as equivalent")
	}
	f := res.Report.Findings[0]
	if f.Method != "Main.main" || f.PC == 0 && f.Line == 0 {
		t.Fatalf("finding not localized: %+v", f)
	}
	if !strings.Contains(f.Message, "yield") {
		t.Fatalf("finding does not name the missing yield event: %s", f.Message)
	}
	t.Logf("refusal: %s", f)
}

// TestMutationReorderedMonExit: hoisting the MonitorExit out of the loop
// (illegal lock motion — it reorders the exit against the loop's yield
// points) must be refused with a pc/line-localized finding.
func TestMutationReorderedMonExit(t *testing.T) {
	p := twoLoops()
	b := bytecode.NewBuilder("mut")
	cb := b.Class("Main")
	cb.Static("lock", true)
	cb.Static("sum", false)
	main := cb.Method("main", 0, 2)
	main.Line(1).Emit(bytecode.New, int32(cb.ID())).PutStatic(cb, "lock")
	main.Line(2).Const(10).Emit(bytecode.Store, 0)
	main.Label("loop")
	main.Line(3).Emit(bytecode.Load, 0).Const(1).Emit(bytecode.Sub).Emit(bytecode.Store, 0)
	main.Line(4).GetStatic(cb, "lock").Emit(bytecode.MonEnter)
	main.Line(5).GetStatic(cb, "sum").Emit(bytecode.Load, 0).Emit(bytecode.Add).PutStatic(cb, "sum")
	main.Line(7).Emit(bytecode.Load, 0).Branch(bytecode.Jnz, "loop")
	main.Line(6).GetStatic(cb, "lock").Emit(bytecode.MonExit) // hoisted out of the loop
	main.Line(8).GetStatic(cb, "sum").Emit(bytecode.Print)
	main.Line(9).Emit(bytecode.Halt)
	b.Entry(main)
	bad := b.MustProgram()
	res := check(t, p, bad)
	if res.Equivalent {
		t.Fatal("reordered monexit certified as equivalent")
	}
	f := res.Report.Findings[0]
	if f.Method != "Main.main" {
		t.Fatalf("finding lacks method: %+v", f)
	}
	if f.Line == 0 && f.PC == 0 {
		t.Fatalf("finding not pc/line-localized: %+v", f)
	}
	t.Logf("refusal: %s", f)
}

// TestMutationDroppedOutput: deleting a Print changes the event language.
func TestMutationDroppedOutput(t *testing.T) {
	p := twoLoops()
	bad := mutate(t, p, func(code []bytecode.Instr) []bytecode.Instr {
		for i, in := range code {
			if in.Op == bytecode.Print {
				code[i] = bytecode.Instr{Op: bytecode.Pop}
			}
		}
		return code
	})
	if res := check(t, p, bad); res.Equivalent {
		t.Fatal("dropped print certified as equivalent")
	}
}

// TestPureReorderIsEquivalent: reshaping pure code (constant folding, an
// extra nop, different scheduling of pure instructions) certifies.
func TestPureReorderIsEquivalent(t *testing.T) {
	p := twoLoops()
	opt := mutate(t, p, func(code []bytecode.Instr) []bytecode.Instr {
		// Replace "Const 10" with "Const 5; Const 5; Add" — different pure
		// instruction sequence, same observable events.
		var out []bytecode.Instr
		grew := 0
		for _, in := range code {
			if in.Op == bytecode.IConst && in.A == 10 && grew == 0 {
				out = append(out,
					bytecode.Instr{Op: bytecode.IConst, A: 5},
					bytecode.Instr{Op: bytecode.IConst, A: 5},
					bytecode.Instr{Op: bytecode.Add})
				grew = 2
				continue
			}
			// Retarget branches past the growth point.
			if ka, _ := in.Op.Operands(); ka == bytecode.OpTarget && int(in.A) > 2 {
				in.A += int32(grew)
			}
			out = append(out, in)
		}
		return out
	})
	res := check(t, p, opt)
	if !res.Equivalent {
		t.Fatalf("pure reshape refused:\n%s", res.Report.Text())
	}
}

// TestStructureMismatch: a missing method is a structural finding.
func TestStructureMismatch(t *testing.T) {
	p := twoLoops()
	b := bytecode.NewBuilder("mut")
	cb := b.Class("Main")
	cb.Static("lock", true)
	cb.Static("sum", false)
	main := cb.Method("other", 0, 2)
	main.Emit(bytecode.Halt)
	b.Entry(main)
	q := b.MustProgram()
	if res := check(t, p, q); res.Equivalent {
		t.Fatal("different method sets certified as equivalent")
	}
}

// TestRacyStaticObservable: unsynchronized statics become part of the
// alphabet, so reordering two racy writes is refused even though neither
// is a monitor or yield event.
func TestRacyStaticObservable(t *testing.T) {
	mk := func(swap bool) *bytecode.Program {
		b := bytecode.NewBuilder("racy")
		cb := b.Class("Main")
		cb.Static("a", false)
		cb.Static("b", false)
		worker := cb.Method("worker", 0, 0)
		if swap {
			worker.Const(1).PutStatic(cb, "b").Const(1).PutStatic(cb, "a")
		} else {
			worker.Const(1).PutStatic(cb, "a").Const(1).PutStatic(cb, "b")
		}
		worker.Emit(bytecode.Ret)
		main := cb.Method("main", 0, 0)
		main.SpawnM(worker).Emit(bytecode.Pop)
		main.Const(2).PutStatic(cb, "a").Const(2).PutStatic(cb, "b")
		main.GetStatic(cb, "a").Emit(bytecode.Print)
		main.Emit(bytecode.Halt)
		b.Entry(main)
		return b.MustProgram()
	}
	res := check(t, mk(false), mk(true))
	if res.Equivalent {
		t.Fatal("reordered racy static writes certified as equivalent")
	}
	found := false
	for _, f := range res.Report.Findings {
		if strings.Contains(f.Message, "puts:Main.") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no racy-static event in findings:\n%s", res.Report.Text())
	}
}

// TestUnreachableCodeIgnored: divergence confined to unreachable blocks
// does not affect equivalence.
func TestUnreachableCodeIgnored(t *testing.T) {
	p := twoLoops()
	noisy := mutate(t, p, func(code []bytecode.Instr) []bytecode.Instr {
		// Append dead code after the Halt: an unreachable monitor op.
		return append(code,
			bytecode.Instr{Op: bytecode.Null},
			bytecode.Instr{Op: bytecode.MonEnter},
			bytecode.Instr{Op: bytecode.Halt})
	})
	res := check(t, p, noisy)
	if !res.Equivalent {
		t.Fatalf("unreachable divergence refused:\n%s", res.Report.Text())
	}
}

// TestVerifyGate: a program that does not verify is refused outright.
func TestVerifyGate(t *testing.T) {
	p := twoLoops()
	bad := mutate(t, p, func(code []bytecode.Instr) []bytecode.Instr {
		code[1] = bytecode.Instr{Op: bytecode.Add} // stack underflow
		return code
	})
	res := check(t, p, bad)
	if res.Equivalent {
		t.Fatal("unverifiable program certified")
	}
	if res.Report.Findings[0].Analysis != "verify" {
		t.Fatalf("expected verify finding, got %+v", res.Report.Findings[0])
	}
}

// joinSrc stores first and then second into local 1 on the two arms of
// an unknown branch, then skips an allocation when local 1 is non-zero.
func joinSrc(first, second int, alloc bool) string {
	body := "    new Main\n    pop\n"
	if !alloc {
		body = ""
	}
	return fmt.Sprintf(`program join
class Main {
  method main 0 2 {
    native "random" 0
    jz other
    iconst %d
    store 1
    jmp join
  other:
    iconst %d
    store 1
  join:
    load 1
    jnz skip
%s  skip:
    halt
  }
}
entry Main.main
`, first, second, body)
}

// TestBranchPruningFollowsEveryFeasiblePath: the certifier prunes a
// branch edge only when the condition is the same constant on every
// feasible path into it. Dropping the allocation behind the branch is
// equivalent when both arms store 1, and refused when either stores 0.
func TestBranchPruningFollowsEveryFeasiblePath(t *testing.T) {
	for _, tc := range []struct {
		first, second int
		equivalent    bool
	}{{1, 1, true}, {1, 0, false}, {0, 1, false}, {0, 0, false}} {
		a := bytecode.MustAssemble(joinSrc(tc.first, tc.second, true))
		b := bytecode.MustAssemble(joinSrc(tc.first, tc.second, false))
		if res := check(t, a, b); res.Equivalent != tc.equivalent {
			t.Errorf("arms store %d and %d: equivalent %v, want %v\n%s",
				tc.first, tc.second, res.Equivalent, tc.equivalent, res.Report.Text())
		}
	}
}
