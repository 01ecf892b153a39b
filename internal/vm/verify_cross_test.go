package vm

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"dejavu/internal/bytecode"
)

// randomSoup builds a structurally valid (Validate-passing) but otherwise
// arbitrary single-method program: random opcodes with in-range operands.
// Most of these fail verification; the ones that pass must never hit an
// operand-stack underflow at runtime — the verifier's core soundness
// property, cross-checked against the real interpreter.
func randomSoup(rng *rand.Rand) *bytecode.Program {
	b := bytecode.NewBuilder("soup")
	cls := b.Class("Main")
	cls.Field("f0", false)
	cls.Field("f1", true)
	cls.Static("s0", false)
	cls.Static("s1", true)
	mb := cls.Method("main", 0, 3)
	n := 3 + rng.Intn(20)
	ops := []bytecode.Opcode{
		// IConst/New appear several times: biasing toward pushes keeps a
		// useful fraction of generated programs verifiable.
		bytecode.IConst, bytecode.IConst, bytecode.IConst, bytecode.IConst,
		bytecode.New, bytecode.Dup,
		bytecode.Nop, bytecode.IConst, bytecode.Null, bytecode.Pop, bytecode.Dup,
		bytecode.Swap, bytecode.Load, bytecode.Store, bytecode.Add, bytecode.Sub,
		bytecode.Mul, bytecode.Neg, bytecode.Not, bytecode.CmpEq, bytecode.CmpLt,
		bytecode.New, bytecode.GetF, bytecode.PutF, bytecode.GetS, bytecode.PutS,
		bytecode.NewArr, bytecode.ALoad, bytecode.AStore, bytecode.ArrLen,
		bytecode.InstOf, bytecode.ThreadID, bytecode.Print, bytecode.PrintS,
	}
	for i := 0; i < n; i++ {
		op := ops[rng.Intn(len(ops))]
		switch op {
		case bytecode.IConst:
			mb.Emit(op, int32(rng.Intn(100)))
		case bytecode.Load, bytecode.Store:
			mb.Emit(op, int32(rng.Intn(3)))
		case bytecode.New, bytecode.InstOf:
			mb.Emit(op, 0) // class Main
		case bytecode.GetF, bytecode.PutF:
			mb.Emit(op, int32(rng.Intn(2)))
		case bytecode.GetS, bytecode.PutS:
			mb.Emit(op, 0, int32(rng.Intn(2)))
		case bytecode.NewArr:
			mb.Emit(op, int32(rng.Intn(3)))
		default:
			mb.Emit(op)
		}
	}
	mb.Emit(bytecode.Halt)
	b.Entry(mb)
	p, err := b.Program()
	if err != nil {
		panic(err)
	}
	return p
}

// TestVerifierSoundAgainstInterpreter: whenever the static verifier
// accepts a random program, executing it never produces an operand-stack
// underflow or a type-confusion trap that the verifier claims to rule out
// statically (underflow always; kind errors except those reachable only
// through Unknown-kind values, which the verifier deliberately admits).
func TestVerifierSoundAgainstInterpreter(t *testing.T) {
	accepted, rejected := 0, 0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for k := 0; k < 20; k++ {
			p := randomSoup(rng)
			_, err := VerifyProgram(p)
			if err != nil {
				rejected++
				continue
			}
			accepted++
			m, err := New(p, Config{MaxEvents: 10_000})
			if err != nil {
				t.Logf("seed %d: vm: %v", seed, err)
				return false
			}
			runErr := m.Run()
			if runErr != nil && strings.Contains(runErr.Error(), "operand stack underflow") {
				t.Logf("seed %d: verified program underflowed: %v\n%s", seed, runErr, bytecode.Disassemble(p))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
	if accepted == 0 || rejected == 0 {
		t.Fatalf("soup generator imbalance: %d accepted, %d rejected", accepted, rejected)
	}
	t.Logf("verified soup programs: %d accepted, %d rejected", accepted, rejected)
}

// TestInterpreterTrapsWhereVerifierRejects spot-checks the inverse
// direction on programs with definite kind errors: the verifier refuses
// them at load, at the instruction whose dynamic check would trap, so
// the interpreter never runs them.
func TestInterpreterTrapsWhereVerifierRejects(t *testing.T) {
	srcs := []struct {
		src string
		pc  int
	}{
		{`program p
class Main {
  method main 0 0 {
    null
    iconst 1
    add
    halt
  }
}
entry Main.main`, 2},
		{`program p
class Main {
  method main 0 0 {
    iconst 3
    prints
    halt
  }
}
entry Main.main`, 1},
	}
	for _, tc := range srcs {
		checkRefused(t, bytecode.MustAssemble(tc.src), "Main.main", tc.pc)
	}
}
