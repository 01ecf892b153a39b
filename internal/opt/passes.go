package opt

import (
	"dejavu/internal/analysis"
	"dejavu/internal/bytecode"
)

// A pass rewrites one method and reports whether it changed anything.
// Every pass obeys the event-preservation contract: it may only add,
// remove, or reorder instructions that emit no replay-observable event
// (see equiv.instrEvents), and it never turns a backward branch forward
// or vice versa. The certifier re-checks the contract on the final
// program; a pass that breaks it gets the whole pipeline refused.
//
// facts, when non-nil, carries the verifier's dataflow result for m as of
// the start of this pass invocation (operand-kind vectors per pc). Passes
// that delete potentially kind-trapping instructions must prove the trap
// impossible from it and stay conservative when it is nil.
type pass struct {
	name  string
	kinds bool // pass wants MethodFacts.InKinds recomputed before it runs
	run   func(p *bytecode.Program, m *bytecode.Method, facts *bytecode.MethodFacts) bool
}

// passes is the fixed pipeline order. Early passes expose work for later
// ones (folding creates dead stores and manifest branches); the driver
// runs rounds until a fixpoint.
var passes = []pass{
	{"constfold", false, constFold},
	{"copyprop", false, copyProp},
	{"deadstore", false, deadStore},
	{"branches", true, branchSimplify},
	{"unreachable", false, dropUnreachable},
	{"popsink", true, popSink},
	{"redload", false, redundantLoad},
}

// topKinds returns the top n operand-stack kinds on entry to pc (top
// last), or nil when the dataflow facts cannot prove them.
func topKinds(f *bytecode.MethodFacts, pc, n int) []bytecode.VKind {
	if f == nil || f.InKinds == nil || pc >= len(f.InKinds) || f.InKinds[pc] == nil {
		return nil
	}
	st := f.InKinds[pc]
	if len(st) < n {
		return nil
	}
	return st[len(st)-n:]
}

// constValue reports the constant an instruction pushes, if any.
func constValue(p *bytecode.Program, in bytecode.Instr) (int64, bool) {
	switch in.Op {
	case bytecode.IConst:
		return int64(in.A), true
	case bytecode.LConst:
		return p.Ints[in.A], true
	}
	return 0, false
}

// constInstr builds an instruction pushing v, interning into the int pool
// when v does not fit an IConst operand.
func constInstr(p *bytecode.Program, v int64) bytecode.Instr {
	if int64(int32(v)) == v {
		return bytecode.Instr{Op: bytecode.IConst, A: int32(v)}
	}
	for i, x := range p.Ints {
		if x == v {
			return bytecode.Instr{Op: bytecode.LConst, A: int32(i)}
		}
	}
	p.Ints = append(p.Ints, v)
	return bytecode.Instr{Op: bytecode.LConst, A: int32(len(p.Ints) - 1)}
}

// pureProducer: pushes one value, reads no stack, emits no event, cannot
// trap. SConst qualifies because string constants are pre-interned — the
// push allocates nothing.
func pureProducer(op bytecode.Opcode) bool {
	switch op {
	case bytecode.IConst, bytecode.LConst, bytecode.SConst, bytecode.Null,
		bytecode.Load, bytecode.ThreadID:
		return true
	}
	return false
}

// constFold rewrites const/const/binop and const/unop windows into a
// single constant push. Windows live inside one basic block, so no jump
// can land mid-pattern.
func constFold(p *bytecode.Program, m *bytecode.Method, _ *bytecode.MethodFacts) bool {
	g := analysis.BuildCFG(m)
	rw := newRewriter(m)
	for bi := range g.Blocks {
		if !g.Reachable(bi) {
			continue
		}
		b := &g.Blocks[bi]
		for pc := b.Start; pc+1 < b.End; pc++ {
			if rw.touched(pc) || rw.touched(pc+1) {
				continue
			}
			v, ok := constValue(p, m.Code[pc])
			if !ok {
				continue
			}
			switch m.Code[pc+1].Op {
			case bytecode.Neg:
				rw.replace(pc, constInstr(p, -v))
				rw.delete(pc + 1)
				pc++
				continue
			case bytecode.Not:
				rw.replace(pc, constInstr(p, ^v))
				rw.delete(pc + 1)
				pc++
				continue
			}
			if pc+2 >= b.End || rw.touched(pc+2) {
				continue
			}
			w, ok := constValue(p, m.Code[pc+1])
			if !ok {
				continue
			}
			if r, ok := bytecode.FoldBinop(m.Code[pc+2].Op, v, w); ok {
				rw.replace(pc, constInstr(p, r))
				rw.delete(pc + 1)
				rw.delete(pc + 2)
				pc += 2
			}
		}
	}
	return rw.apply()
}

// copyProp tracks, per basic block, which local slots hold a known
// constant and replaces their loads with the constant push. Locals are
// only ever written by Store in this ISA — calls and natives cannot
// touch a caller's frame — so in-block facts survive every other
// instruction; only the abstract operand stack is discarded at
// unmodeled instructions.
func copyProp(p *bytecode.Program, m *bytecode.Method, _ *bytecode.MethodFacts) bool {
	g := analysis.BuildCFG(m)
	rw := newRewriter(m)
	type av struct {
		known bool
		v     int64
	}
	for bi := range g.Blocks {
		if !g.Reachable(bi) {
			continue
		}
		b := &g.Blocks[bi]
		consts := map[int32]int64{}
		var stack []av
		pop := func() av {
			if len(stack) == 0 {
				return av{} // below modeled depth: unknown
			}
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			return top
		}
		for pc := b.Start; pc < b.End; pc++ {
			in := m.Code[pc]
			switch in.Op {
			case bytecode.IConst:
				stack = append(stack, av{true, int64(in.A)})
			case bytecode.LConst:
				stack = append(stack, av{true, p.Ints[in.A]})
			case bytecode.SConst, bytecode.Null, bytecode.ThreadID:
				stack = append(stack, av{})
			case bytecode.Load:
				if v, ok := consts[in.A]; ok {
					if !rw.touched(pc) {
						rw.replace(pc, constInstr(p, v))
					}
					stack = append(stack, av{true, v})
				} else {
					stack = append(stack, av{})
				}
			case bytecode.Store:
				if top := pop(); top.known {
					consts[in.A] = top.v
				} else {
					delete(consts, in.A)
				}
			case bytecode.Dup:
				if len(stack) > 0 {
					stack = append(stack, stack[len(stack)-1])
				} else {
					stack = append(stack, av{})
				}
			case bytecode.Swap:
				if len(stack) >= 2 {
					stack[len(stack)-1], stack[len(stack)-2] = stack[len(stack)-2], stack[len(stack)-1]
				} else {
					stack = nil
				}
			case bytecode.Pop:
				pop()
			case bytecode.Add, bytecode.Sub, bytecode.Mul, bytecode.Div,
				bytecode.Mod, bytecode.And, bytecode.Or, bytecode.Xor,
				bytecode.Shl, bytecode.Shr, bytecode.CmpEq, bytecode.CmpNe,
				bytecode.CmpLt, bytecode.CmpLe, bytecode.CmpGt, bytecode.CmpGe:
				pop()
				pop()
				stack = append(stack, av{})
			case bytecode.Neg, bytecode.Not:
				pop()
				stack = append(stack, av{})
			default:
				// Calls, heap, sync, branches: drop stack knowledge; the
				// per-local constants remain valid.
				stack = nil
			}
		}
	}
	return rw.apply()
}

// deadStore replaces stores to locals that are never read again with a
// Pop — a backward liveness solve across the whole CFG, not a peephole.
// Store and Pop are both silent, so the event stream is untouched; the
// now-unconsumed producer is cleaned up by popSink.
func deadStore(p *bytecode.Program, m *bytecode.Method, _ *bytecode.MethodFacts) bool {
	g := analysis.BuildCFG(m)
	type lv = map[int32]bool
	clone := func(s lv) lv {
		out := make(lv, len(s))
		for k := range s {
			out[k] = true
		}
		return out
	}
	transfer := func(b *analysis.Block, out lv) lv {
		live := clone(out)
		for pc := b.End - 1; pc >= b.Start; pc-- {
			switch in := m.Code[pc]; in.Op {
			case bytecode.Store:
				delete(live, in.A)
			case bytecode.Load:
				live[in.A] = true
			}
		}
		return live
	}
	meet := func(acc, in lv) (lv, bool) {
		changed := false
		for k := range in {
			if !acc[k] {
				acc[k] = true
				changed = true
			}
		}
		return acc, changed
	}
	liveOut := analysis.Solve(g, analysis.Backward, lv{}, clone, transfer, meet)

	rw := newRewriter(m)
	for bi := range g.Blocks {
		if !g.Reachable(bi) {
			continue
		}
		b := &g.Blocks[bi]
		live := clone(liveOut[bi])
		for pc := b.End - 1; pc >= b.Start; pc-- {
			switch in := m.Code[pc]; in.Op {
			case bytecode.Store:
				if !live[in.A] {
					rw.replace(pc, bytecode.Instr{Op: bytecode.Pop})
				}
				delete(live, in.A)
			case bytecode.Load:
				live[in.A] = true
			}
		}
	}
	return rw.apply()
}

// branchSimplify resolves branches whose outcome is manifest:
//
//   - Jmp to the next pc (necessarily forward) is a no-op: delete.
//   - Jz/Jnz to the next pc goes the same way on both edges: Pop.
//   - const; Jz/Jnz — the exact shape the certifier's automaton prunes —
//     becomes Jmp (taken) or disappears (not taken). A taken backward
//     branch stays a backward Jmp, so its yield point survives at the
//     same edge; a never-taken backward branch never yielded at runtime,
//     and the automaton's pruning rule agrees.
func branchSimplify(p *bytecode.Program, m *bytecode.Method, facts *bytecode.MethodFacts) bool {
	g := analysis.BuildCFG(m)
	rw := newRewriter(m)
	for bi := range g.Blocks {
		if !g.Reachable(bi) {
			continue
		}
		b := &g.Blocks[bi]
		for pc := b.Start; pc < b.End; pc++ {
			if rw.touched(pc) {
				continue
			}
			in := m.Code[pc]
			switch in.Op {
			case bytecode.Jmp:
				if int(in.A) == pc+1 {
					rw.delete(pc)
				}
			case bytecode.Jz, bytecode.Jnz:
				if int(in.A) == pc+1 {
					// Jz/Jnz pops via popPrim and traps on a reference;
					// plain Pop does not. Only rewrite when the operand is
					// provably primitive, or the trap would be elided.
					if ks := topKinds(facts, pc, 1); len(ks) == 1 && ks[0] == bytecode.VPrim {
						rw.replace(pc, bytecode.Instr{Op: bytecode.Pop})
					}
					continue
				}
				if pc == b.Start || rw.touched(pc-1) {
					continue
				}
				v, ok := constValue(p, m.Code[pc-1])
				if !ok {
					continue
				}
				rw.delete(pc - 1)
				if taken := (in.Op == bytecode.Jz) == (v == 0); taken {
					rw.replace(pc, bytecode.Instr{Op: bytecode.Jmp, A: in.A})
				} else {
					rw.delete(pc)
				}
			}
		}
	}
	return rw.apply()
}

// dropUnreachable deletes code in CFG-unreachable blocks. The certifier
// builds automata over reachable blocks only, so this is equivalence-
// trivial; no reachable branch can target the deleted range (that would
// make it reachable). Ret and RetV stay: the verifier reads a method's
// return shape off every return in its code, reachable or not, so
// deleting a method's only dead RetV would turn it void and leave its
// call sites one operand short.
func dropUnreachable(p *bytecode.Program, m *bytecode.Method, _ *bytecode.MethodFacts) bool {
	g := analysis.BuildCFG(m)
	rw := newRewriter(m)
	for bi := range g.Blocks {
		if g.Reachable(bi) {
			continue
		}
		for pc := g.Blocks[bi].Start; pc < g.Blocks[bi].End; pc++ {
			if op := m.Code[pc].Op; op != bytecode.Ret && op != bytecode.RetV {
				rw.delete(pc)
			}
		}
	}
	return rw.apply()
}

// popSink cancels pure producers against the Pop that discards them:
//
//	[pure push][Pop]  -> (nothing)
//	[Dup][Pop]        -> (nothing)
//	[binop][Pop]      -> [Pop][Pop]   (non-trapping binops only)
//	[Neg|Not][Pop]    -> [Pop]
//
// Rounds cascade: a dead expression tree unwinds one layer per round
// until every operand push is gone.
func popSink(p *bytecode.Program, m *bytecode.Method, facts *bytecode.MethodFacts) bool {
	g := analysis.BuildCFG(m)
	rw := newRewriter(m)
	for bi := range g.Blocks {
		if !g.Reachable(bi) {
			continue
		}
		b := &g.Blocks[bi]
		for pc := b.Start; pc+1 < b.End; pc++ {
			if rw.touched(pc) || rw.touched(pc+1) || m.Code[pc+1].Op != bytecode.Pop {
				continue
			}
			in := m.Code[pc]
			switch {
			case pureProducer(in.Op) || in.Op == bytecode.Dup:
				rw.delete(pc)
				rw.delete(pc + 1)
				pc++
			case func() bool { _, ok := bytecode.FoldBinop(in.Op, 0, 0); return ok }():
				// Arithmetic-safe binop (FoldBinop's domain), but the VM
				// still kind-traps: arith and ordered compares pop via
				// popPrim (trap on refs); CmpEq/CmpNe trap on a mixed
				// ref/prim pair. Replacing with plain Pops elides those
				// traps, so the operand kinds must be proven first.
				ks := topKinds(facts, pc, 2)
				if len(ks) != 2 {
					continue
				}
				ok := ks[0] == bytecode.VPrim && ks[1] == bytecode.VPrim
				if in.Op == bytecode.CmpEq || in.Op == bytecode.CmpNe {
					ok = ok || (ks[0] == bytecode.VRef && ks[1] == bytecode.VRef)
				}
				if ok {
					rw.replace(pc, bytecode.Instr{Op: bytecode.Pop})
				}
			case in.Op == bytecode.Neg || in.Op == bytecode.Not:
				// Neg/Not pop via popPrim: deleting one elides a ref trap
				// unless the operand is provably primitive.
				if ks := topKinds(facts, pc, 1); len(ks) == 1 && ks[0] == bytecode.VPrim {
					rw.delete(pc)
				}
			}
		}
	}
	return rw.apply()
}

// redundantLoad removes reload traffic inside a block:
//
//	[Load x][Load x]  -> [Load x][Dup]
//	[Store x][Load x] -> [Dup][Store x]
//	[Load x][Store x] -> (nothing)
func redundantLoad(p *bytecode.Program, m *bytecode.Method, _ *bytecode.MethodFacts) bool {
	g := analysis.BuildCFG(m)
	rw := newRewriter(m)
	for bi := range g.Blocks {
		if !g.Reachable(bi) {
			continue
		}
		b := &g.Blocks[bi]
		for pc := b.Start; pc+1 < b.End; pc++ {
			if rw.touched(pc) || rw.touched(pc+1) {
				continue
			}
			in, next := m.Code[pc], m.Code[pc+1]
			switch {
			case in.Op == bytecode.Load && next.Op == bytecode.Load && in.A == next.A:
				rw.replace(pc+1, bytecode.Instr{Op: bytecode.Dup})
			case in.Op == bytecode.Store && next.Op == bytecode.Load && in.A == next.A:
				rw.replace(pc, bytecode.Instr{Op: bytecode.Dup}, in)
				rw.delete(pc + 1)
				pc++
			case in.Op == bytecode.Load && next.Op == bytecode.Store && in.A == next.A:
				rw.delete(pc)
				rw.delete(pc + 1)
				pc++
			}
		}
	}
	return rw.apply()
}
