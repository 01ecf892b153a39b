package bytecode

import (
	"fmt"
)

// Verifier: abstract interpretation of each method's operand stack and
// locals, in the spirit of the JVM bytecode verifier Jalapeño relies on.
// It proves, before execution, the properties the interpreter otherwise
// traps on dynamically:
//
//   - no operand stack underflow on any path
//   - consistent stack depth and slot kinds (reference vs primitive) at
//     every control-flow join
//   - kind-correct operands (arithmetic on primitives, field access on
//     references, jump conditions on primitives, ...)
//   - every path through a method returns consistently (all Ret or all
//     RetV), and call sites agree with their target's return shape
//   - native calls match registered arity and result counts
//
// It also computes each method's maximum operand stack depth, which the
// VM can use to pre-size activation frames.

// VKind is the verifier's value lattice.
type VKind uint8

const (
	VUnknown VKind = iota // argument slots: could be either, usable as both
	VPrim
	VRef
)

func (k VKind) String() string {
	switch k {
	case VPrim:
		return "prim"
	case VRef:
		return "ref"
	default:
		return "unknown"
	}
}

// merge combines kinds at a control-flow join; conflicting kinds are a
// verification error (reported by the caller).
func merge(a, b VKind) (VKind, bool) {
	if a == b {
		return a, true
	}
	if a == VUnknown {
		return b, true
	}
	if b == VUnknown {
		return a, true
	}
	return VUnknown, false
}

// NativeSig reports a native's operand count and result count. The VM
// supplies its registry; verification fails on unknown natives.
type NativeSig func(name string) (pops, pushes int, ok bool)

// VerifyConfig parameterizes verification.
type VerifyConfig struct {
	Natives NativeSig
	// RecordKinds captures the fixpoint operand-stack kinds at every
	// reachable pc into MethodFacts.InKinds. Optimizer passes use them
	// to prove an operation cannot trap on operand kinds at runtime.
	RecordKinds bool
}

// MethodFacts is what verification proves about one method.
type MethodFacts struct {
	MaxStack     int  // maximum operand depth beyond locals
	ReturnsValue bool // true if the method returns via retv
	// InKinds[pc] is the operand-stack kind vector (bottom first) on
	// entry to pc at the dataflow fixpoint; nil for unreachable pcs.
	// Only populated with VerifyConfig.RecordKinds.
	InKinds [][]VKind
}

// VerifyError locates a verification failure.
type VerifyError struct {
	Method string
	PC     int
	Reason string
}

func (e *VerifyError) Error() string {
	return fmt.Sprintf("verify: %s pc=%d: %s", e.Method, e.PC, e.Reason)
}

// Verify checks every method of p and returns per-method facts indexed by
// method ID.
func Verify(p *Program, cfg VerifyConfig) ([]MethodFacts, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	// Pass 1: determine each method's return shape (needed at call sites).
	returns := make([]int, len(p.Methods)) // -1 unknown, 0 void, 1 value
	for i := range returns {
		returns[i] = -1
	}
	for id, m := range p.Methods {
		shape := -1
		for pc, in := range m.Code {
			var s int
			switch in.Op {
			case Ret:
				s = 0
			case RetV:
				s = 1
			default:
				continue
			}
			if shape == -1 {
				shape = s
			} else if shape != s {
				return nil, &VerifyError{Method: m.FullName(), PC: pc,
					Reason: "method mixes ret and retv"}
			}
		}
		if shape == -1 {
			// No return at all: a spin/halt-only method. Treat as void.
			shape = 0
		}
		returns[id] = shape
	}
	// CallV consensus: all methods sharing a name must agree on arity and
	// return shape, or virtual call sites cannot be verified.
	byName := map[string][2]int{} // name -> {nargs, shape}
	for id, m := range p.Methods {
		cur, seen := byName[m.Name]
		next := [2]int{m.NArgs, returns[id]}
		if seen && cur != next {
			byName[m.Name] = [2]int{-1, -1} // mark ambiguous
		} else if !seen {
			byName[m.Name] = next
		}
	}

	facts := make([]MethodFacts, len(p.Methods))
	for id, m := range p.Methods {
		f, err := verifyMethod(p, m, cfg, returns, byName)
		if err != nil {
			return nil, err
		}
		f.ReturnsValue = returns[id] == 1
		facts[id] = *f
	}
	return facts, nil
}

// state is the abstract machine state at one pc.
type state struct {
	stack  []VKind
	locals []VKind
}

func (s *state) clone() *state {
	return &state{
		stack:  append([]VKind(nil), s.stack...),
		locals: append([]VKind(nil), s.locals...),
	}
}

func verifyMethod(p *Program, m *Method, cfg VerifyConfig, returns []int, byName map[string][2]int) (*MethodFacts, error) {
	fail := func(pc int, format string, args ...any) error {
		return &VerifyError{Method: m.FullName(), PC: pc, Reason: fmt.Sprintf(format, args...)}
	}
	// Entry state: argument slots are Unknown (signatures are untyped),
	// remaining locals are zero-initialized primitives... but the VM
	// pushes null refs too; locals beyond arguments start as prim zeros,
	// which the program may overwrite with refs — model as Unknown to
	// stay permissive, then rely on operation kinds.
	entry := &state{locals: make([]VKind, m.NLocals)}
	for i := range entry.locals {
		if i < m.NArgs {
			entry.locals[i] = VUnknown
		} else {
			entry.locals[i] = VPrim // zeroed prim until stored over
		}
	}

	inStates := make([]*state, len(m.Code))
	inStates[0] = entry
	work := []int{0}
	maxStack := 0

	pop := func(pc int, st *state, want VKind) (VKind, error) {
		if len(st.stack) == 0 {
			return VUnknown, fail(pc, "operand stack underflow")
		}
		k := st.stack[len(st.stack)-1]
		st.stack = st.stack[:len(st.stack)-1]
		switch want {
		case VPrim:
			if k == VRef {
				return k, fail(pc, "expected primitive, found reference")
			}
		case VRef:
			if k == VPrim {
				return k, fail(pc, "expected reference, found primitive")
			}
		}
		return k, nil
	}
	push := func(st *state, k VKind) {
		st.stack = append(st.stack, k)
		if len(st.stack) > maxStack {
			maxStack = len(st.stack)
		}
	}
	// flow merges a successor state, queueing it if changed.
	flow := func(pc, target int, st *state) error {
		if target < 0 || target >= len(m.Code) {
			// A non-terminal last instruction falls through past the end.
			return fail(pc, "control flows past the end of the method")
		}
		cur := inStates[target]
		if cur == nil {
			inStates[target] = st.clone()
			work = append(work, target)
			return nil
		}
		if len(cur.stack) != len(st.stack) {
			return fail(pc, "inconsistent stack depth at join pc=%d: %d vs %d",
				target, len(cur.stack), len(st.stack))
		}
		changed := false
		for i := range cur.stack {
			mk, ok := merge(cur.stack[i], st.stack[i])
			if !ok {
				return fail(pc, "stack slot %d kind conflict at join pc=%d (%v vs %v)",
					i, target, cur.stack[i], st.stack[i])
			}
			if mk != cur.stack[i] {
				cur.stack[i] = mk
				changed = true
			}
		}
		for i := range cur.locals {
			// Locals may legitimately hold different kinds on different
			// paths as long as later uses agree; widen to Unknown.
			if cur.locals[i] != st.locals[i] {
				if cur.locals[i] != VUnknown {
					cur.locals[i] = VUnknown
					changed = true
				}
			}
		}
		if changed {
			work = append(work, target)
		}
		return nil
	}

	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		st := inStates[pc].clone()
		in := m.Code[pc]

		next := func() error { return flow(pc, pc+1, st) }
		var err error
		switch in.Op {
		case Nop:
			err = next()
		case IConst, LConst:
			push(st, VPrim)
			err = next()
		case SConst:
			push(st, VRef)
			err = next()
		case Null:
			push(st, VRef)
			err = next()
		case Pop:
			if _, err = pop(pc, st, VUnknown); err == nil {
				err = next()
			}
		case Dup:
			if len(st.stack) == 0 {
				err = fail(pc, "dup on empty stack")
			} else {
				push(st, st.stack[len(st.stack)-1])
				err = next()
			}
		case Swap:
			if len(st.stack) < 2 {
				err = fail(pc, "swap needs two operands")
			} else {
				n := len(st.stack)
				st.stack[n-1], st.stack[n-2] = st.stack[n-2], st.stack[n-1]
				err = next()
			}
		case Load:
			push(st, st.locals[in.A])
			err = next()
		case Store:
			var k VKind
			if k, err = pop(pc, st, VUnknown); err == nil {
				st.locals[in.A] = k
				err = next()
			}
		case Add, Sub, Mul, Div, Mod, And, Or, Xor, Shl, Shr:
			if _, err = pop(pc, st, VPrim); err == nil {
				if _, err = pop(pc, st, VPrim); err == nil {
					push(st, VPrim)
					err = next()
				}
			}
		case Neg, Not:
			if _, err = pop(pc, st, VPrim); err == nil {
				push(st, VPrim)
				err = next()
			}
		case CmpEq, CmpNe:
			var k1, k2 VKind
			if k1, err = pop(pc, st, VUnknown); err == nil {
				if k2, err = pop(pc, st, VUnknown); err == nil {
					if (k1 == VRef && k2 == VPrim) || (k1 == VPrim && k2 == VRef) {
						err = fail(pc, "comparing reference with primitive")
					} else {
						push(st, VPrim)
						err = next()
					}
				}
			}
		case CmpLt, CmpLe, CmpGt, CmpGe:
			if _, err = pop(pc, st, VPrim); err == nil {
				if _, err = pop(pc, st, VPrim); err == nil {
					push(st, VPrim)
					err = next()
				}
			}
		case Jmp:
			err = flow(pc, int(in.A), st)
		case Jz, Jnz:
			if _, err = pop(pc, st, VPrim); err == nil {
				if err = flow(pc, int(in.A), st); err == nil {
					err = next()
				}
			}
		case Ret:
			// Leftover operands are permitted (discarded by frame pop).
		case RetV:
			_, err = pop(pc, st, VUnknown)
		case Call, Spawn:
			target := p.Methods[in.A]
			for i := 0; i < target.NArgs; i++ {
				if _, err = pop(pc, st, VUnknown); err != nil {
					break
				}
			}
			if err == nil {
				if in.Op == Spawn {
					push(st, VPrim) // thread id
				} else if returns[in.A] == 1 {
					push(st, VUnknown) // callee's value, kind unknown
				}
				err = next()
			}
		case CallV:
			name := p.Strings[in.A]
			sig, ok := byName[name]
			if !ok {
				err = fail(pc, "callv %q: no such method in any class", name)
				break
			}
			if sig[0] == -1 {
				err = fail(pc, "callv %q: classes disagree on arity or return shape", name)
				break
			}
			if sig[0] != int(in.B) {
				err = fail(pc, "callv %q passes %d args, methods take %d", name, in.B, sig[0])
				break
			}
			for i := 0; i < int(in.B)-1; i++ {
				if _, err = pop(pc, st, VUnknown); err != nil {
					break
				}
			}
			if err == nil {
				if _, err = pop(pc, st, VRef); err == nil { // receiver
					if sig[1] == 1 {
						push(st, VUnknown)
					}
					err = next()
				}
			}
		case Native:
			name := p.Strings[in.A]
			if cfg.Natives == nil {
				err = fail(pc, "native %q: no native signatures configured", name)
				break
			}
			pops, pushes, ok := cfg.Natives(name)
			if !ok {
				err = fail(pc, "unknown native %q", name)
				break
			}
			if pops != int(in.B) {
				err = fail(pc, "native %q takes %d operands, %d passed", name, pops, in.B)
				break
			}
			for i := 0; i < pops; i++ {
				if _, err = pop(pc, st, VUnknown); err != nil {
					break
				}
			}
			if err == nil {
				for i := 0; i < pushes; i++ {
					push(st, VUnknown)
				}
				err = next()
			}
		case New:
			push(st, VRef)
			err = next()
		case GetF:
			if _, err = pop(pc, st, VRef); err == nil {
				push(st, VUnknown) // refness depends on runtime class
				err = next()
			}
		case PutF:
			if _, err = pop(pc, st, VUnknown); err == nil {
				if _, err = pop(pc, st, VRef); err == nil {
					err = next()
				}
			}
		case GetS:
			if p.Classes[in.A].Statics[in.B].IsRef {
				push(st, VRef)
			} else {
				push(st, VPrim)
			}
			err = next()
		case PutS:
			want := VPrim
			if p.Classes[in.A].Statics[in.B].IsRef {
				want = VRef
			}
			if _, err = pop(pc, st, want); err == nil {
				err = next()
			}
		case NewArr:
			if _, err = pop(pc, st, VPrim); err == nil {
				push(st, VRef)
				err = next()
			}
		case ALoad:
			if _, err = pop(pc, st, VPrim); err == nil {
				if _, err = pop(pc, st, VRef); err == nil {
					push(st, VUnknown)
					err = next()
				}
			}
		case AStore:
			if _, err = pop(pc, st, VUnknown); err == nil {
				if _, err = pop(pc, st, VPrim); err == nil {
					if _, err = pop(pc, st, VRef); err == nil {
						err = next()
					}
				}
			}
		case ArrLen:
			if _, err = pop(pc, st, VRef); err == nil {
				push(st, VPrim)
				err = next()
			}
		case InstOf:
			if _, err = pop(pc, st, VRef); err == nil {
				push(st, VPrim)
				err = next()
			}
		case MonEnter, MonExit, Wait, Notify, NotifyAll:
			if _, err = pop(pc, st, VRef); err == nil {
				err = next()
			}
		case TimedWait:
			if _, err = pop(pc, st, VPrim); err == nil {
				if _, err = pop(pc, st, VRef); err == nil {
					err = next()
				}
			}
		case ThreadID:
			push(st, VPrim)
			err = next()
		case YieldOp:
			err = next()
		case Sleep:
			if _, err = pop(pc, st, VPrim); err == nil {
				err = next()
			}
		case Interrupt:
			if _, err = pop(pc, st, VPrim); err == nil {
				err = next()
			}
		case Print:
			if _, err = pop(pc, st, VPrim); err == nil {
				err = next()
			}
		case PrintS:
			if _, err = pop(pc, st, VRef); err == nil {
				err = next()
			}
		case Assert:
			if _, err = pop(pc, st, VPrim); err == nil {
				err = next()
			}
		case Halt:
			// Terminal.
		default:
			err = fail(pc, "unverified opcode %v", in.Op)
		}
		if err != nil {
			return nil, err
		}
	}
	// Any instruction never reached is dead code — legal, but report it as
	// a fact? Keep silent: the assembler can emit unreachable labels.
	f := &MethodFacts{MaxStack: maxStack}
	if cfg.RecordKinds {
		f.InKinds = make([][]VKind, len(m.Code))
		for pc, st := range inStates {
			if st != nil {
				// Non-nil even when empty: nil marks an unreachable pc.
				f.InKinds[pc] = append(make([]VKind, 0, len(st.stack)), st.stack...)
			}
		}
	}
	return f, nil
}
