package equiv

// Constant branch conditions. The optimizer resolves a branch once its
// condition folds to a constant, and folding runs through locals and
// across pipeline rounds: a branch it drops can read in the input as
// `load 1; load 1; mul; iconst 24; cmpge; jnz` with local 1 stored as 24
// before a sleep. The automaton may prune a branch edge only where the
// runtime can never take it, so both sides run the same forward constant
// propagation over locals and the operand stack, which follows only the
// edges it cannot rule out (conditional constant propagation). An edge
// the optimizer proved dead is then pruned on the input side too.
//
// Only locals written by Store and operands pushed by constants, loads,
// Dup/Swap and folded arithmetic (bytecode.FoldBinop, the interpreter's
// own semantics) are ever known; every other instruction leaves unknown
// operands. Locals start unknown and only Store writes them: no call,
// native or callback can touch a caller's frame.

import (
	"dejavu/internal/analysis"
	"dejavu/internal/bytecode"
)

// cval is one slot's abstract value: a known constant or unknown.
type cval struct {
	known bool
	v     int64
}

// meet is the value both a and b allow.
func (a cval) meet(b cval) cval {
	if a == b {
		return a
	}
	return cval{}
}

type cstate struct {
	locals, stack []cval
}

func (s *cstate) clone() *cstate {
	return &cstate{
		locals: append([]cval(nil), s.locals...),
		stack:  append([]cval(nil), s.stack...),
	}
}

// meetInto lowers dst to what both dst and src allow and reports
// whether it changed. The verifier fixes the operand depth at every
// join, so the stacks are the same length.
func (dst *cstate) meetInto(src *cstate) bool {
	changed := false
	for _, pair := range [2][2][]cval{{dst.locals, src.locals}, {dst.stack, src.stack}} {
		for i := range pair[0] {
			if m := pair[0][i].meet(pair[1][i]); m != pair[0][i] {
				pair[0][i] = m
				changed = true
			}
		}
	}
	return changed
}

// branchConsts returns, for every conditional branch of m that some
// feasible path reaches, its condition when that is the same constant
// on every feasible path. inKinds is the verifier's operand-kind vector
// per pc (bytecode.MethodFacts.InKinds), used for the operand depth
// after an instruction the propagation does not model.
func branchConsts(p *bytecode.Program, m *bytecode.Method, g *analysis.CFG, inKinds [][]bytecode.VKind) map[int]int64 {
	entry := make([]*cstate, len(g.Blocks))
	entry[0] = &cstate{locals: make([]cval, m.NLocals)}
	work := []int{0}
	cond := map[int]cval{}
	for len(work) > 0 {
		bi := work[len(work)-1]
		work = work[:len(work)-1]
		b := &g.Blocks[bi]
		st := entry[bi].clone()
		pop := func() cval {
			v := st.stack[len(st.stack)-1]
			st.stack = st.stack[:len(st.stack)-1]
			return v
		}
		push := func(v cval) { st.stack = append(st.stack, v) }
		succs := b.Succs
		for pc := b.Start; pc < b.End; pc++ {
			in := m.Code[pc]
			switch in.Op {
			case bytecode.IConst:
				push(cval{true, int64(in.A)})
			case bytecode.LConst:
				push(cval{true, p.Ints[in.A]})
			case bytecode.Load:
				push(st.locals[in.A])
			case bytecode.Store:
				st.locals[in.A] = pop()
			case bytecode.Dup:
				push(st.stack[len(st.stack)-1])
			case bytecode.Swap:
				n := len(st.stack)
				st.stack[n-1], st.stack[n-2] = st.stack[n-2], st.stack[n-1]
			case bytecode.Pop:
				pop()
			case bytecode.Neg, bytecode.Not:
				a := pop()
				if in.Op == bytecode.Neg {
					a.v = -a.v
				} else {
					a.v = ^a.v
				}
				push(a)
			case bytecode.Jz, bytecode.Jnz:
				c := pop()
				cond[pc] = c
				if c.known {
					if taken := (in.Op == bytecode.Jz) == (c.v == 0); taken {
						succs = []int{g.BlockOf[in.A]}
					} else {
						succs = []int{g.BlockOf[pc+1]}
					}
				}
			case bytecode.Jmp, bytecode.Ret, bytecode.RetV, bytecode.Halt:
				// Ends the block; its successors are b.Succs.
			default:
				if _, binop := bytecode.FoldBinop(in.Op, 0, 0); binop {
					y, x := pop(), pop()
					if r, _ := bytecode.FoldBinop(in.Op, x.v, y.v); x.known && y.known {
						push(cval{true, r})
					} else {
						push(cval{})
					}
					continue
				}
				// Unmodeled: every operand below the verified depth after it
				// is unknown. It falls through, so pc+1 is reachable.
				st.stack = make([]cval, len(inKinds[pc+1]))
			}
		}
		for _, s := range succs {
			if entry[s] == nil {
				entry[s] = st.clone()
			} else if !entry[s].meetInto(st) {
				continue
			}
			work = append(work, s)
		}
	}
	out := map[int]int64{}
	for pc, c := range cond {
		if c.known {
			out[pc] = c.v
		}
	}
	return out
}
