package equiv

// The observable-event automaton and its equivalence decision.
//
// Construction: every reachable CFG block becomes an NFA state; walking a
// block's instructions appends one single-symbol transition per
// observable event (through fresh chain states), and the block's
// terminator wires epsilon or "yield"-labeled edges to its successors —
// the taken edge of a backward branch carries the yield event, matching
// the runtime clock's placement exactly. Ret/RetV/Halt emit their own
// symbols into a shared accept state, so return-kind and halt placement
// are part of the language.
//
// Decision: optimizations merge, split, and empty out blocks, so the raw
// automata of equivalent programs rarely align state-for-state. The NFAs
// are therefore determinized by epsilon-closure subset construction —
// the result is canonical in the event language, independent of block
// partitioning — and the DFAs are walked in product. Divergence is the
// first product state whose outgoing symbol sets (or acceptance) differ;
// the walk's BFS order makes the reported path a shortest diverging
// event word. Provenance (instruction pc) rides along on every NFA state
// and transition so a divergence localizes to method/pc/line on both
// sides.

import (
	"fmt"
	"sort"
	"strings"

	"dejavu/internal/analysis"
	"dejavu/internal/bytecode"
)

// nfaTrans is one transition; sym == "" is an epsilon edge.
type nfaTrans struct {
	sym string
	to  int
	pc  int // pc of the instruction emitting sym, -1 for epsilon
}

type nfa struct {
	trans  [][]nfaTrans
	origin []int // per state: the pc this state sits at (provenance), -1 unknown
	accept int   // the shared accept state
}

func (n *nfa) newState(pc int) int {
	n.trans = append(n.trans, nil)
	n.origin = append(n.origin, pc)
	return len(n.trans) - 1
}

func (n *nfa) edge(from, to int, sym string, pc int) {
	n.trans[from] = append(n.trans[from], nfaTrans{sym: sym, to: to, pc: pc})
}

// buildNFA extracts the observable-event automaton of one method. facts
// is the method's verifier result with InKinds recorded.
func buildNFA(p *bytecode.Program, m *bytecode.Method, facts *bytecode.MethodFacts, racy map[string]bool) *nfa {
	g := analysis.BuildCFG(m)
	consts := branchConsts(p, m, g, facts.InKinds)
	n := &nfa{}
	entry := n.newState(0)
	_ = entry // state 0 is the start by construction
	blockState := make([]int, len(g.Blocks))
	for i := range blockState {
		blockState[i] = -1
	}
	// Block 0 contains pc 0 and is the entry block.
	for bi := range g.Blocks {
		if !g.Reachable(bi) {
			continue
		}
		if g.Blocks[bi].Start == 0 {
			blockState[bi] = 0
			n.origin[0] = 0
		} else {
			blockState[bi] = n.newState(g.Blocks[bi].Start)
		}
	}
	n.accept = n.newState(-1)
	// jump wires a taken branch from state cur at pc to target: a
	// backward one ticks the clock, so its edge carries the yield.
	jump := func(cur, pc, target int) {
		if target <= pc {
			n.edge(cur, blockState[g.BlockOf[target]], "yield", pc)
		} else {
			n.edge(cur, blockState[g.BlockOf[target]], "", -1)
		}
	}

	for bi := range g.Blocks {
		if !g.Reachable(bi) {
			continue
		}
		b := &g.Blocks[bi]
		cur := blockState[bi]
		terminated := false
		for pc := b.Start; pc < b.End; pc++ {
			in := m.Code[pc]
			for _, sym := range instrEvents(p, in, racy) {
				next := n.newState(pc)
				n.edge(cur, next, sym, pc)
				cur = next
			}
			switch in.Op {
			case bytecode.Ret:
				n.edge(cur, n.accept, "ret", pc)
				terminated = true
			case bytecode.RetV:
				n.edge(cur, n.accept, "retv", pc)
				terminated = true
			case bytecode.Halt:
				n.edge(cur, n.accept, "halt", pc)
				terminated = true
			case bytecode.Jmp:
				jump(cur, pc, int(in.A))
				terminated = true
			case bytecode.Jz, bytecode.Jnz:
				// When the condition is the same constant on every feasible
				// path (branchConsts), only one edge is feasible. Pruning
				// the dead edge, identically on both sides, is what lets
				// the optimizer's branch folding certify: the runtime never
				// takes (and never yields on) that edge. Successor order
				// per BuildCFG: fallthrough first, then taken.
				v, known := consts[pc]
				taken := (in.Op == bytecode.Jz) == (v == 0)
				if !known || !taken {
					n.edge(cur, blockState[g.BlockOf[pc+1]], "", -1)
				}
				if !known || taken {
					jump(cur, pc, int(in.A))
				}
				terminated = true
			}
		}
		if !terminated {
			// Fallthrough into the next block.
			for _, s := range b.Succs {
				n.edge(cur, blockState[s], "", -1)
			}
		}
	}
	return n
}

// instrEvents returns the observable-event symbols executing in emits, in
// execution order. The alphabet covers everything replay must reproduce
// in place:
//
//   - clock events: method prologues (folded into call/spawn symbols) and
//     explicit yields; taken backward branches are handled on CFG edges
//   - synchronization: monitor, wait/notify, sleep, interrupt
//   - natives: every native call (recorded natives replay from the trace;
//     deterministic ones still pin the instrumentation symmetry)
//   - output and checks: print, assert
//   - trapping instructions (div/mod, heap and array accesses,
//     allocation): a trap ends the execution, so its position is part of
//     observable behavior — and keeping allocation in the alphabet pins
//     the allocation sequence, which final-state comparison relies on
//   - racy static accesses: ordered only by the recorded schedule
func instrEvents(p *bytecode.Program, in bytecode.Instr, racy map[string]bool) []string {
	switch in.Op {
	case bytecode.Call:
		return []string{"call:" + p.Methods[in.A].FullName()}
	case bytecode.CallV:
		return []string{fmt.Sprintf("callv:%s/%d", p.Strings[in.A], in.B)}
	case bytecode.Spawn:
		return []string{"spawn:" + p.Methods[in.A].FullName()}
	case bytecode.Native:
		return []string{fmt.Sprintf("native:%s/%d", p.Strings[in.A], in.B)}
	case bytecode.YieldOp:
		return []string{"yieldop"}
	case bytecode.MonEnter:
		return []string{"monenter"}
	case bytecode.MonExit:
		return []string{"monexit"}
	case bytecode.Wait:
		return []string{"wait"}
	case bytecode.TimedWait:
		return []string{"timedwait"}
	case bytecode.Notify:
		return []string{"notify"}
	case bytecode.NotifyAll:
		return []string{"notifyall"}
	case bytecode.Sleep:
		return []string{"sleep"}
	case bytecode.Interrupt:
		return []string{"interrupt"}
	case bytecode.Print:
		return []string{"print"}
	case bytecode.PrintS:
		return []string{"prints"}
	case bytecode.Assert:
		return []string{"assert"}
	case bytecode.Div:
		return []string{"div"}
	case bytecode.Mod:
		return []string{"mod"}
	case bytecode.New:
		return []string{"new:" + p.Classes[in.A].Name}
	case bytecode.NewArr:
		return []string{fmt.Sprintf("newarr:%d", in.A)}
	case bytecode.GetF:
		return []string{fmt.Sprintf("getf:%d", in.A)}
	case bytecode.PutF:
		return []string{fmt.Sprintf("putf:%d", in.A)}
	case bytecode.ALoad:
		return []string{"aload"}
	case bytecode.AStore:
		return []string{"astore"}
	case bytecode.ArrLen:
		return []string{"arrlen"}
	case bytecode.InstOf:
		return []string{"instof:" + p.Classes[in.A].Name}
	case bytecode.GetS:
		if racy[staticSlotName(p, in)] {
			return []string{"gets:" + staticSlotName(p, in)}
		}
	case bytecode.PutS:
		if racy[staticSlotName(p, in)] {
			return []string{"puts:" + staticSlotName(p, in)}
		}
	}
	return nil
}

func staticSlotName(p *bytecode.Program, in bytecode.Instr) string {
	c := p.Classes[in.A]
	return c.Name + "." + c.Statics[in.B].Name
}

// dfa is the determinized automaton. State 0 is the start state.
type dfa struct {
	// next[s] maps symbol -> successor state.
	next []map[string]int
	// pcOf[s][sym] is the smallest pc among NFA transitions realizing sym
	// from s — the provenance reported on divergence.
	pcOf []map[string]int
	// anchor[s] is the smallest origin pc among s's member NFA states.
	anchor []int
	// accepting[s]: s contains the NFA accept state.
	accepting []bool
}

// determinize performs epsilon-closure subset construction. The result
// depends only on the automaton's event language, not its state layout,
// which is what lets the product walk compare programs whose basic-block
// partitions were reshaped by optimization.
func determinize(n *nfa) *dfa {
	closure := func(set []int) []int {
		seen := make(map[int]bool, len(set))
		work := append([]int(nil), set...)
		for _, s := range set {
			seen[s] = true
		}
		for len(work) > 0 {
			s := work[len(work)-1]
			work = work[:len(work)-1]
			for _, t := range n.trans[s] {
				if t.sym == "" && !seen[t.to] {
					seen[t.to] = true
					work = append(work, t.to)
				}
			}
		}
		out := make([]int, 0, len(seen))
		for s := range seen {
			out = append(out, s)
		}
		sort.Ints(out)
		return out
	}
	key := func(set []int) string {
		var sb strings.Builder
		for _, s := range set {
			fmt.Fprintf(&sb, "%d,", s)
		}
		return sb.String()
	}

	d := &dfa{}
	index := map[string]int{}
	var sets [][]int
	intern := func(set []int) int {
		k := key(set)
		if id, ok := index[k]; ok {
			return id
		}
		id := len(sets)
		index[k] = id
		sets = append(sets, set)
		d.next = append(d.next, map[string]int{})
		d.pcOf = append(d.pcOf, map[string]int{})
		anchor, accepting := -1, false
		for _, s := range set {
			if s == n.accept {
				accepting = true
			}
			if pc := n.origin[s]; pc >= 0 && (anchor == -1 || pc < anchor) {
				anchor = pc
			}
		}
		d.anchor = append(d.anchor, anchor)
		d.accepting = append(d.accepting, accepting)
		return id
	}

	start := intern(closure([]int{0}))
	work := []int{start}
	for len(work) > 0 {
		id := work[0]
		work = work[1:]
		moves := map[string][]int{}
		pcs := map[string]int{}
		for _, s := range sets[id] {
			for _, t := range n.trans[s] {
				if t.sym == "" {
					continue
				}
				moves[t.sym] = append(moves[t.sym], t.to)
				if cur, ok := pcs[t.sym]; !ok || (t.pc >= 0 && t.pc < cur) {
					pcs[t.sym] = t.pc
				}
			}
		}
		for _, sym := range sortedKeys(moves) {
			before := len(sets)
			to := intern(closure(moves[sym]))
			if len(sets) > before {
				work = append(work, to) // freshly interned state: explore it
			}
			d.next[id][sym] = to
			d.pcOf[id][sym] = pcs[sym]
		}
	}
	return d
}

// compareDFA walks the product of the two methods' DFAs breadth-first and
// appends a finding for the first diverging state pair. It returns the
// number of matched transitions certified.
func compareDFA(r *analysis.Report, ma, mb *bytecode.Method, da, db *dfa) int {
	type pair struct{ a, b int }
	type path struct {
		prev *path
		sym  string
	}
	seen := map[pair]bool{{0, 0}: true}
	queue := []pair{{0, 0}}
	trail := map[pair]*path{{0, 0}: nil}
	checked := 0

	render := func(p *path) string {
		var syms []string
		for ; p != nil; p = p.prev {
			syms = append(syms, p.sym)
		}
		for i, j := 0, len(syms)-1; i < j; i, j = i+1, j-1 {
			syms[i], syms[j] = syms[j], syms[i]
		}
		if len(syms) == 0 {
			return "at method entry"
		}
		const max = 8
		if len(syms) > max {
			syms = append([]string{fmt.Sprintf("... %d events ...", len(syms)-max)}, syms[len(syms)-max:]...)
		}
		return "after [" + strings.Join(syms, " ") + "]"
	}
	loc := func(m *bytecode.Method, pc int) string {
		if pc < 0 {
			return "pc=?"
		}
		s := fmt.Sprintf("pc=%d", pc)
		if pc < len(m.Lines) && m.Lines[pc] > 0 {
			s += fmt.Sprintf(" line=%d", m.Lines[pc])
		}
		return s
	}
	symsOf := func(d *dfa, s int) []string { return sortedKeys(d.next[s]) }

	report := func(p pair, pcOverride int, msg string) {
		f := analysis.Finding{
			Analysis: analysis.AEquiv,
			Method:   ma.FullName(),
			Message:  msg,
		}
		pc := da.anchor[p.a]
		if pcOverride >= 0 {
			pc = pcOverride // the diverging event's own pc in the left program
		}
		if pc >= 0 {
			f.PC = pc
			if pc < len(ma.Lines) {
				f.Line = int(ma.Lines[pc])
			}
		}
		r.Findings = append(r.Findings, f)
	}

	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		sa, sb := symsOf(da, p.a), symsOf(db, p.b)
		if !equalStrings(sa, sb) {
			where := render(trail[p])
			missing, side, haveM, havePC, otherM, otherPC := divergingSym(sa, sb, ma, mb, da, db, p.a, p.b)
			anchor := -1
			if side == "left" {
				anchor = havePC // the event only the left program emits
			}
			report(p, anchor, fmt.Sprintf(
				"observable events diverge %s: %s emits %q (%s) where the other side emits %s (%s); left %s, right %s",
				where, side, missing, loc(haveM, havePC), renderSyms(otherSide(sa, sb, side)), loc(otherM, otherPC),
				renderSyms(sa), renderSyms(sb)))
			return checked
		}
		if da.accepting[p.a] != db.accepting[p.b] {
			report(p, -1, fmt.Sprintf("termination diverges %s: only one side can end the method here", render(trail[p])))
			return checked
		}
		for _, sym := range sa {
			checked++
			np := pair{da.next[p.a][sym], db.next[p.b][sym]}
			if !seen[np] {
				seen[np] = true
				trail[np] = &path{prev: trail[p], sym: sym}
				queue = append(queue, np)
			}
		}
	}
	return checked
}

// divergingSym picks the lexicographically first symbol present on
// exactly one side and returns it with its provenance.
func divergingSym(sa, sb []string, ma, mb *bytecode.Method, da, db *dfa, pa, pb int) (sym, side string, m *bytecode.Method, pc int, om *bytecode.Method, opc int) {
	inB := map[string]bool{}
	for _, s := range sb {
		inB[s] = true
	}
	for _, s := range sa {
		if !inB[s] {
			return s, "left", ma, da.pcOf[pa][s], mb, db.anchor[pb]
		}
	}
	inA := map[string]bool{}
	for _, s := range sa {
		inA[s] = true
	}
	for _, s := range sb {
		if !inA[s] {
			return s, "right", mb, db.pcOf[pb][s], ma, da.anchor[pa]
		}
	}
	return "", "left", ma, -1, mb, -1
}

func otherSide(sa, sb []string, side string) []string {
	if side == "left" {
		return sb
	}
	return sa
}

func renderSyms(syms []string) string {
	if len(syms) == 0 {
		return "nothing"
	}
	return "{" + strings.Join(syms, " ") + "}"
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
