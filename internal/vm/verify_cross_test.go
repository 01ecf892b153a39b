package vm

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dejavu/internal/bytecode"
)

// soupVal is what randomSoup knows a stack or local slot holds at run
// time, finer than the verifier's kinds so that most programs run to
// the end instead of trapping.
type soupVal uint8

const (
	svUnknown soupVal = iota // a field or element read, a call or native result: VUnknown
	svPrim
	svObj  // a Main object
	svArr  // an int64 or byte array of length 100
	svStr  // a string constant
	svNull // null
)

// kind is the verifier's kind for v.
func (v soupVal) kind() bytecode.VKind {
	switch v {
	case svUnknown:
		return bytecode.VUnknown
	case svPrim:
		return bytecode.VPrim
	}
	return bytecode.VRef
}

// randomSoup builds a small random program: a straight-line main over
// the single-class opcode vocabulary, the clock native and calls to a
// two-argument method mix. The generator tracks what each operand and
// local holds and draws each instruction from those the current stack
// admits without a kind trap, so most programs verify and many run to
// the end. One program in four gets one instruction drawn blind, which
// the verifier mostly rejects. A verified program can still trap at run
// time (a null field read, an index out of bounds): the verifier admits
// those.
func randomSoup(rng *rand.Rand) *bytecode.Program {
	b := bytecode.NewBuilder("soup")
	cls := b.Class("Main")
	cls.Field("f0", false)
	cls.Field("f1", true)
	cls.Static("s0", false)
	cls.Static("s1", true)
	mix := cls.Method("mix", 2, 2)
	mix.Emit(bytecode.Load, 0).Const(31).Emit(bytecode.Mul).Emit(bytecode.Load, 1).Emit(bytecode.Add).Emit(bytecode.RetV)
	mb := cls.Method("main", 0, 3)

	var stack []soupVal
	locals := []soupVal{svPrim, svPrim, svPrim}
	statics := []soupVal{svPrim, svNull}
	isRef := func(v soupVal) bool { return v.kind() == bytecode.VRef }
	anything := func(soupVal) bool { return true }
	prim := func(v soupVal) bool { return v == svPrim }
	obj := func(v soupVal) bool { return v == svObj }
	arr := func(v soupVal) bool { return v == svArr }
	// admits reports whether the top operands, top first, satisfy want.
	admits := func(want ...func(soupVal) bool) bool {
		if len(stack) < len(want) {
			return false
		}
		for i, ok := range want {
			if !ok(stack[len(stack)-1-i]) {
				return false
			}
		}
		return true
	}
	top := func() soupVal {
		if len(stack) == 0 {
			return svUnknown
		}
		return stack[len(stack)-1]
	}
	// apply pops n operands and pushes out.
	apply := func(n int, out ...soupVal) {
		stack = stack[:max(0, len(stack)-n)]
		stack = append(stack, out...)
	}
	// slotFor picks the field or static slot v may be stored in: 0 holds
	// a primitive, 1 a reference.
	slotFor := func(v soupVal) int32 {
		switch v.kind() {
		case bytecode.VPrim:
			return 0
		case bytecode.VRef:
			return 1
		}
		return int32(rng.Intn(2))
	}
	ops := []bytecode.Opcode{
		bytecode.IConst, bytecode.IConst, bytecode.IConst, bytecode.New, bytecode.Null, bytecode.SConst,
		bytecode.Nop, bytecode.Pop, bytecode.Dup, bytecode.Swap, bytecode.Load, bytecode.Store,
		bytecode.Add, bytecode.Sub, bytecode.Mul, bytecode.Neg, bytecode.Not,
		bytecode.CmpEq, bytecode.CmpLt, bytecode.GetF, bytecode.PutF, bytecode.GetS, bytecode.PutS,
		bytecode.NewArr, bytecode.ALoad, bytecode.AStore, bytecode.ArrLen, bytecode.InstOf,
		bytecode.ThreadID, bytecode.Print, bytecode.PrintS, bytecode.Call, bytecode.Native,
	}
	// emit appends op if the stack admits it, or regardless when blind,
	// and tracks what the slots then hold.
	emit := func(op bytecode.Opcode, blind bool) bool {
		need := func(want ...func(soupVal) bool) bool { return blind || admits(want...) }
		switch op {
		case bytecode.IConst:
			mb.Emit(op, int32(rng.Intn(100)))
			apply(0, svPrim)
		case bytecode.ThreadID:
			mb.Emit(op)
			apply(0, svPrim)
		case bytecode.New:
			mb.Emit(op, 0)
			apply(0, svObj)
		case bytecode.Null:
			mb.Emit(op)
			apply(0, svNull)
		case bytecode.SConst:
			mb.Str("soup")
			apply(0, svStr)
		case bytecode.Nop:
			mb.Emit(op)
		case bytecode.Pop:
			if !need(anything) {
				return false
			}
			mb.Emit(op)
			apply(1)
		case bytecode.Print:
			if !need(prim) {
				return false
			}
			mb.Emit(op)
			apply(1)
		case bytecode.PrintS:
			if !need(func(v soupVal) bool { return v == svStr }) {
				return false
			}
			mb.Emit(op)
			apply(1)
		case bytecode.Dup:
			if !need(anything) {
				return false
			}
			mb.Emit(op)
			apply(0, top())
		case bytecode.Swap:
			if !need(anything, anything) {
				return false
			}
			mb.Emit(op)
			if n := len(stack); n >= 2 {
				stack[n-1], stack[n-2] = stack[n-2], stack[n-1]
			}
		case bytecode.Load:
			i := rng.Intn(len(locals))
			mb.Emit(op, int32(i))
			apply(0, locals[i])
		case bytecode.Store:
			if !need(anything) {
				return false
			}
			i := rng.Intn(len(locals))
			mb.Emit(op, int32(i))
			locals[i] = top()
			apply(1)
		case bytecode.Add, bytecode.Sub, bytecode.Mul, bytecode.CmpLt:
			if !need(prim, prim) {
				return false
			}
			mb.Emit(op)
			apply(2, svPrim)
		case bytecode.Neg, bytecode.Not:
			if !need(prim) {
				return false
			}
			mb.Emit(op)
			apply(1, svPrim)
		case bytecode.CmpEq:
			// Two primitives or two references, never VUnknown: comparing
			// a reference with a primitive traps.
			k := top().kind()
			same := func(v soupVal) bool { return v.kind() == k && k != bytecode.VUnknown }
			if !need(same, same) {
				return false
			}
			mb.Emit(op)
			apply(2, svPrim)
		case bytecode.GetF:
			if !need(obj) {
				return false
			}
			mb.Emit(op, int32(rng.Intn(2)))
			apply(1, svUnknown)
		case bytecode.PutF:
			if !need(func(v soupVal) bool { return v != svUnknown }, obj) {
				return false
			}
			mb.Emit(op, slotFor(top()))
			apply(2)
		case bytecode.GetS:
			slot := rng.Intn(2)
			mb.Emit(op, 0, int32(slot))
			apply(0, statics[slot])
		case bytecode.PutS:
			if !need(func(v soupVal) bool { return v != svUnknown }) {
				return false
			}
			slot := slotFor(top())
			mb.Emit(op, 0, slot)
			statics[slot] = top()
			apply(1)
		case bytecode.NewArr:
			// A fixed length keeps every IConst index in bounds.
			mb.Const(100).Emit(op, []int32{bytecode.KindInt64, bytecode.KindByte}[rng.Intn(2)])
			apply(0, svArr)
		case bytecode.ALoad:
			if !need(prim, arr) {
				return false
			}
			mb.Emit(op)
			apply(2, svUnknown)
		case bytecode.AStore:
			if !need(prim, prim, arr) {
				return false
			}
			mb.Emit(op)
			apply(3)
		case bytecode.ArrLen:
			if !need(func(v soupVal) bool { return v == svArr || v == svStr }) {
				return false
			}
			mb.Emit(op)
			apply(1, svPrim)
		case bytecode.InstOf:
			if !need(isRef) {
				return false
			}
			mb.Emit(op, 0)
			apply(1, svPrim)
		case bytecode.Call:
			if !need(prim, prim) {
				return false
			}
			mb.CallM(mix)
			apply(2, svUnknown)
		case bytecode.Native:
			mb.NativeCall("clock", 0)
			apply(0, svUnknown)
		}
		return true
	}
	n := 3 + rng.Intn(20)
	blindAt := -1
	if rng.Intn(4) == 0 {
		blindAt = rng.Intn(n)
	}
	for i := 0; i < n; i++ {
		if i == blindAt {
			emit(ops[rng.Intn(len(ops))], true)
			continue
		}
		for !emit(ops[rng.Intn(len(ops))], false) {
		}
	}
	mb.Emit(bytecode.Halt)
	b.Entry(mb)
	prog, err := b.Program()
	if err != nil {
		panic(err)
	}
	return prog
}

// TestVerifierSoundAgainstInterpreter: every random program the verifier
// accepts runs under Run, RunUntil and a Step loop with the handler
// contract checked (checkHandlerContract): at every instruction the
// operand depth is the verified one and every slot the verifier types
// carries that kind, so the depth checks the interpreter omits could
// never fire. Run-time traps (VUnknown operands of the wrong kind, null
// references) are allowed; the verifier admits them.
func TestVerifierSoundAgainstInterpreter(t *testing.T) {
	bad := checkHandlerContract(t)
	accepted, rejected := 0, 0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for k := 0; k < 20; k++ {
			p := randomSoup(rng)
			if _, err := VerifyProgram(p); err != nil {
				rejected++
				continue
			}
			accepted++
			for _, drive := range digestDrives {
				m, err := New(p, Config{MaxEvents: 10_000})
				if err != nil {
					t.Logf("seed %d: vm: %v", seed, err)
					return false
				}
				runErr := driveVM(m, drive)
				if n, first := bad.take(); n > 0 {
					t.Logf("seed %d under %s: %d contract violations (run error %v), first: %q\n%s",
						seed, drive, n, runErr, first, bytecode.Disassemble(p))
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
	// Most programs must verify, or the oracle barely sees generated
	// code; some must not, or the verifier is not exercised.
	if accepted <= rejected || rejected == 0 {
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
