// Package equiv decides replay equivalence of two bytecode programs: an
// optimizer may transform code freely, but the recorded schedule of
// observable events must stay exactly reproducible (the paper's
// perturbation-free requirement for cross-optimized applications).
//
// Per method, the package extracts an observable-event automaton: CFG
// blocks are states and edges carry the ordered sequence of
// replay-observable operations — yield points per the clock placement
// rules (taken backward branches, method prologues via Call/CallV/Spawn,
// explicit YieldOp), monitor and wait/notify operations, native calls,
// output and trapping instructions, and static accesses the races
// analysis flags as racy. Two programs are equivalent when, method by
// method, the automata accept the same event language — decided by
// epsilon-closure determinization followed by a product walk that either
// visits every reachable state pair without disagreement or returns the
// first diverging event path as a structured finding with method/pc/line
// on both sides.
//
// The check is deliberately one-sided-safe: anything it cannot prove
// equivalent is inequivalent. The optimizer pipeline treats that as
// certify-or-refuse.
package equiv

import (
	"fmt"
	"sort"
	"strings"

	"dejavu/internal/analysis"
	"dejavu/internal/bytecode"
)

// Result is the certifier's verdict over one program pair.
type Result struct {
	// Report carries one AEquiv finding per divergence (or one AVerify
	// finding when a side does not verify). Clean report == equivalent.
	Report *analysis.Report
	// Equivalent is Report.Clean(), split out for call sites.
	Equivalent bool
	// EventsChecked counts the product-automaton transitions the walk
	// certified: the number of distinct observable-event steps proven to
	// match between the two programs.
	EventsChecked int
}

// Check decides replay equivalence of a (the reference) and b (the
// candidate, e.g. an optimizer's output). natives is the native-call
// registry used for stack-shape verification (normally
// vm.NativeSignature).
func Check(a, b *bytecode.Program, natives bytecode.NativeSig) *Result {
	res := &Result{Report: &analysis.Report{
		Program:  a.Name + " vs " + b.Name,
		Findings: []analysis.Finding{},
	}}

	fa, oka := verifySide(res.Report, a, natives, "left")
	fb, okb := verifySide(res.Report, b, natives, "right")
	if !oka || !okb {
		return res
	}
	if !checkStructure(res.Report, a, b) {
		return res
	}

	// Racy statics from either side count as observable on both: if the
	// optimizer's output made an access racy (or the input already was),
	// its placement is ordered only by the recorded schedule.
	racy := map[string]bool{}
	for slot := range analysis.RacyStatics(a, natives) {
		racy[staticName(a, slot)] = true
	}
	for slot := range analysis.RacyStatics(b, natives) {
		racy[staticName(b, slot)] = true
	}

	names := make([]string, 0, len(a.Methods))
	for _, m := range a.Methods {
		names = append(names, m.FullName())
	}
	sort.Strings(names)
	for _, name := range names {
		ma, _ := a.MethodByName(name)
		mb, _ := b.MethodByName(name)
		da := determinize(buildNFA(a, ma, &fa[ma.ID], racy))
		db := determinize(buildNFA(b, mb, &fb[mb.ID], racy))
		res.EventsChecked += compareDFA(res.Report, ma, mb, da, db)
	}
	res.Equivalent = res.Report.Clean()
	return res
}

// verifySide validates and verifies one program, with operand kinds
// recorded, reporting a rejection as an AVerify finding tagged with the
// side.
func verifySide(r *analysis.Report, p *bytecode.Program, natives bytecode.NativeSig, side string) ([]bytecode.MethodFacts, bool) {
	if err := p.Validate(); err != nil {
		r.Findings = append(r.Findings, analysis.Finding{
			Analysis: analysis.AVerify,
			Message:  fmt.Sprintf("%s program rejected: %v", side, err),
		})
		return nil, false
	}
	facts, err := bytecode.Verify(p, bytecode.VerifyConfig{Natives: natives, RecordKinds: true})
	if err != nil {
		r.Findings = append(r.Findings, analysis.Finding{
			Analysis: analysis.AVerify,
			Message:  fmt.Sprintf("%s program does not verify: %v", side, err),
		})
		return nil, false
	}
	return facts, true
}

// checkStructure proves the two programs agree on the shape equivalence
// is defined over: the same entry point, the same method set (by full
// name and arity), and the same class layout (class names, static and
// instance field lists). Code bodies are free to differ — that is what
// the automata decide.
func checkStructure(r *analysis.Report, a, b *bytecode.Program) bool {
	bad := func(format string, args ...any) {
		r.Findings = append(r.Findings, analysis.Finding{
			Analysis: analysis.AEquiv,
			Message:  fmt.Sprintf(format, args...),
		})
	}
	ok := true
	if ea, eb := a.EntryMethod().FullName(), b.EntryMethod().FullName(); ea != eb {
		bad("entry methods differ: left starts at %s, right at %s", ea, eb)
		ok = false
	}
	type sig struct {
		nargs int
	}
	sigs := func(p *bytecode.Program) map[string]sig {
		out := make(map[string]sig, len(p.Methods))
		for _, m := range p.Methods {
			out[m.FullName()] = sig{nargs: m.NArgs}
		}
		return out
	}
	sa, sb := sigs(a), sigs(b)
	for _, name := range sortedKeys(sa) {
		tb, there := sb[name]
		if !there {
			bad("method %s exists only in the left program", name)
			ok = false
			continue
		}
		if sa[name].nargs != tb.nargs {
			bad("method %s arity differs: %d args left, %d right", name, sa[name].nargs, tb.nargs)
			ok = false
		}
	}
	for _, name := range sortedKeys(sb) {
		if _, there := sa[name]; !there {
			bad("method %s exists only in the right program", name)
			ok = false
		}
	}
	layout := func(p *bytecode.Program) map[string]string {
		out := make(map[string]string, len(p.Classes))
		for _, c := range p.Classes {
			var sb strings.Builder
			for _, s := range c.Statics {
				fmt.Fprintf(&sb, "s:%s,", s.Name)
			}
			for _, f := range c.Fields {
				fmt.Fprintf(&sb, "f:%s,", f.Name)
			}
			out[c.Name] = sb.String()
		}
		return out
	}
	la, lb := layout(a), layout(b)
	for _, name := range sortedKeys(la) {
		shape, there := lb[name]
		switch {
		case !there:
			bad("class %s exists only in the left program", name)
			ok = false
		case la[name] != shape:
			bad("class %s field/static layout differs between the programs", name)
			ok = false
		}
	}
	for _, name := range sortedKeys(lb) {
		if _, there := la[name]; !there {
			bad("class %s exists only in the right program", name)
			ok = false
		}
	}
	return ok
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func staticName(p *bytecode.Program, slot [2]int32) string {
	c := p.Classes[slot[0]]
	return c.Name + "." + c.Statics[slot[1]].Name
}
