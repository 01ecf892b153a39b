// Package minimize delta-debugs a recorded preemption schedule: given a
// trace that reproduces a fault (trap, divergence, stall, event-budget
// exhaustion, or a dynamic race-detector hit), it searches for a minimal
// subset of the recorded preemption switches that still reproduces it,
// emitting a reduced trace plus a report of the kept switches with their
// method/pc/line sites.
//
// The mechanism rides the record mode's determinism: the engine consults
// its Preemptor exactly once per live yield point, so the recorded switch
// stream (yield deltas) converts to a set of global yield positions, and a
// ScriptedPreemptor firing at exactly those positions re-produces the
// recorded execution bit for bit — every other non-deterministic input
// (fake time, host randomness, program input) being replayed from the same
// configuration. Dropping positions from the fire set yields a *different
// but fully deterministic* execution, which makes the candidate runs of
// ddmin reliable experiments rather than rolls of the dice.
//
// Every candidate must pass a two-stage oracle before it counts as
// reproducing: (1) the scripted re-record exhibits the target fault
// signature, and (2) an independent replay of the candidate's trace —
// under the stall watchdog, with the race detector attached when hunting a
// race — exhibits it again with a bit-identical digest. A schedule that
// records a fault but cannot replay it is not a repro.
package minimize

import (
	"errors"
	"fmt"
	"time"

	"dejavu/internal/bytecode"
	"dejavu/internal/core"
	"dejavu/internal/flightrec"
	"dejavu/internal/obs"
	"dejavu/internal/replaycheck"
	"dejavu/internal/tools"
	"dejavu/internal/trace"
	"dejavu/internal/vm"
)

// Options configures a minimization run.
type Options struct {
	// Record holds the options that reproduce the original recording
	// (time base/step, host randomness, input, heap geometry, event
	// budget). The preemption seed is ignored — the schedule comes from
	// the scripted fire set.
	Record replaycheck.Options
	// Deadline arms the replay watchdog for candidate confirmation
	// (default 2s): a candidate whose replay stalls is not a repro.
	Deadline time.Duration
	// MaxCandidates caps the ddmin search (0 = unlimited). When the cap is
	// hit the current (still-reproducing) set is returned.
	MaxCandidates int
	// Obs receives dv_minimize_* metrics (nil = disabled).
	Obs *obs.Registry
	// Log, when set, receives progress lines.
	Log func(format string, args ...any)
}

// Switch is one kept preemption switch with its source site.
type Switch struct {
	Position uint64 `json:"position"` // global yield position (1-based consultation count)
	Thread   int    `json:"thread"`   // thread preempted
	Method   string `json:"method"`   // method executing at the yield
	PC       int    `json:"pc"`
	Line     int    `json:"line"`
}

// Report is the JSON-serializable minimization summary.
type Report struct {
	Fault            string   `json:"fault"`
	Site             string   `json:"site,omitempty"` // trap site or raced slot
	OriginalSwitches int      `json:"original_switches"`
	KeptSwitches     int      `json:"kept_switches"`
	ReductionPct     float64  `json:"reduction_pct"`
	Candidates       int      `json:"candidates"`
	Kept             []Switch `json:"kept"`
}

// Result is the minimization outcome.
type Result struct {
	Report    Report
	Positions []uint64 // minimal fire set, ascending
	Trace     []byte   // reduced flat trace container (replays the repro)
}

// SwitchPositions converts a trace's switch stream into global yield
// positions (prefix sums of the recorded yield deltas).
func SwitchPositions(r *trace.Reader) ([]uint64, error) {
	var out []uint64
	var at uint64
	for {
		nyp, ok := r.NextSwitch()
		if !ok {
			break
		}
		at += nyp
		out = append(out, at)
	}
	if r.SwitchesRemaining() {
		return nil, fmt.Errorf("undecodable switch entry after %d switches", len(out))
	}
	return out, nil
}

// signature identifies a fault for the oracle: its class plus a site that
// pins it to a program location (trap method:pc, raced slot).
type signature struct {
	class string
	site  string
}

func (s signature) String() string {
	if s.site == "" {
		return s.class
	}
	return s.class + "@" + s.site
}

func runSignature(err error) signature {
	sig := signature{class: flightrec.Classify(err)}
	if sig.class == "trap" {
		var ve *vm.VMError
		if errors.As(err, &ve) {
			sig.site = fmt.Sprintf("%s:%d", ve.Method, ve.PC)
		}
	}
	return sig
}

func raceSite(r tools.Race) string { return fmt.Sprintf("slot%d", r.Slot) }

type minimizer struct {
	prog       *bytecode.Program
	o          Options
	target     signature
	candidates int
	cache      map[string]bool
	lastTrace  []byte // trace of the most recent passing candidate
	mCand      *obs.Counter
}

// Run minimizes the schedule recorded in src against prog. Only src's
// switch stream is read; src (NewReader over either container kind, or a
// journal's Journal.Source loaded whole) must come from a from-start
// recording of prog.
func Run(prog *bytecode.Program, src *trace.Reader, o Options) (*Result, error) {
	if o.Deadline == 0 {
		o.Deadline = 2 * time.Second
	}
	m := &minimizer{prog: prog, o: o, cache: map[string]bool{}}
	m.mCand = o.Obs.Counter("dv_minimize_candidates_total")

	positions, err := SwitchPositions(src)
	if err != nil {
		return nil, fmt.Errorf("minimize: read switch stream: %w", err)
	}

	// Precondition: the full fire set must reproduce a fault — otherwise
	// there is nothing to minimize. The probe also fixes the target
	// signature every candidate is held to.
	full, fullTrace, err := m.probe(positions)
	if err != nil {
		return nil, err
	}
	if full.class == "" {
		return nil, errors.New("minimize: the recording does not reproduce a fault (no trap, divergence, stall, budget stop, or race)")
	}
	m.target = full
	m.lastTrace = fullTrace
	m.logf("minimize: target fault %s; %d recorded switches", full, len(positions))

	// Candidates that drop synchronization switches can deadlock; in our
	// cooperative VM that burns the event budget and classifies as
	// "budget", failing the oracle — but give non-budget targets enough
	// headroom that legitimate repros never hit the budget first.
	if full.class != "budget" {
		rec, rerr := m.recordScripted(positions)
		if rerr == nil {
			need := rec.Events*4 + 10_000
			if m.o.Record.MaxEvents == 0 || m.o.Record.MaxEvents > need {
				m.o.Record.MaxEvents = need
			}
		}
	}

	minimal := m.ddmin(positions)
	o.Obs.Counter("dv_minimize_runs_total").Inc()
	o.Obs.Counter("dv_minimize_removed_switches_total").Add(uint64(len(positions) - len(minimal)))

	kept, err := m.sites(minimal)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Positions: minimal,
		Trace:     m.lastTrace,
		Report: Report{
			Fault:            m.target.class,
			Site:             m.target.site,
			OriginalSwitches: len(positions),
			KeptSwitches:     len(minimal),
			Candidates:       m.candidates,
			Kept:             kept,
		},
	}
	if len(positions) > 0 {
		res.Report.ReductionPct = 100 * float64(len(positions)-len(minimal)) / float64(len(positions))
	}
	return res, nil
}

func (m *minimizer) logf(format string, args ...any) {
	if m.o.Log != nil {
		m.o.Log(format, args...)
	}
}

// recordScripted re-executes the program with the scripted fire set.
func (m *minimizer) recordScripted(positions []uint64) (*replaycheck.Result, error) {
	o := m.o.Record
	base := o.TweakEngine
	o.TweakEngine = func(cfg *core.Config) {
		if base != nil {
			base(cfg)
		}
		cfg.Preempt = core.NewScriptedPreemptor(positions)
	}
	rec, err := replaycheck.Record(m.prog, o)
	if err != nil {
		return nil, fmt.Errorf("minimize: candidate record: %w", err)
	}
	return rec, nil
}

// probe runs one candidate through the two-stage oracle and returns its
// confirmed fault signature ("" class when it reproduces nothing).
func (m *minimizer) probe(positions []uint64) (signature, []byte, error) {
	m.candidates++
	m.mCand.Inc()
	rec, err := m.recordScripted(positions)
	if err != nil {
		return signature{}, nil, err
	}
	recSig := runSignature(rec.RunErr)

	// Replay confirmation: same heap geometry and budget, watchdog armed,
	// race detector attached.
	ro := replaycheck.Options{
		HeapBytes:        m.o.Record.HeapBytes,
		StackSlots:       m.o.Record.StackSlots,
		MaxEvents:        m.o.Record.MaxEvents,
		ProgressDeadline: m.o.Deadline,
	}
	rd := tools.NewRaceDetector()
	ro.TweakVM = func(cfg *vm.Config) {
		cfg.MemHook = rd
		cfg.SyncHook = rd
	}
	rep, err := replaycheck.Replay(m.prog, rec.Trace, ro)
	if err != nil {
		return signature{}, nil, nil // replay refused: not a repro
	}
	if rep.Digest.Sum() != rec.Digest.Sum() || runSignature(rep.RunErr) != recSig {
		return signature{}, nil, nil // candidate does not replay faithfully
	}
	if recSig.class != "" {
		return recSig, rec.Trace, nil
	}
	for _, r := range rd.Races() {
		return signature{class: "race", site: raceSite(r)}, rec.Trace, nil
	}
	return signature{}, nil, nil
}

// matchesTarget reports whether the candidate reproduces the target.
// For races any hit on the target slot counts; other classes must match
// the full signature.
func (m *minimizer) matchesTarget(positions []uint64) bool {
	m.candidates++
	m.mCand.Inc()
	rec, err := m.recordScripted(positions)
	if err != nil {
		return false
	}
	recSig := runSignature(rec.RunErr)
	if m.target.class != "race" && recSig != m.target {
		return false
	}
	ro := replaycheck.Options{
		HeapBytes:        m.o.Record.HeapBytes,
		StackSlots:       m.o.Record.StackSlots,
		MaxEvents:        m.o.Record.MaxEvents,
		ProgressDeadline: m.o.Deadline,
	}
	rd := tools.NewRaceDetector()
	if m.target.class == "race" {
		ro.TweakVM = func(cfg *vm.Config) {
			cfg.MemHook = rd
			cfg.SyncHook = rd
		}
	}
	rep, err := replaycheck.Replay(m.prog, rec.Trace, ro)
	if err != nil || rep.Digest.Sum() != rec.Digest.Sum() || runSignature(rep.RunErr) != recSig {
		return false
	}
	if m.target.class == "race" {
		for _, r := range rd.Races() {
			if raceSite(r) == m.target.site {
				m.lastTrace = rec.Trace
				return true
			}
		}
		return false
	}
	m.lastTrace = rec.Trace
	return true
}

func (m *minimizer) test(positions []uint64) bool {
	if m.o.MaxCandidates > 0 && m.candidates >= m.o.MaxCandidates {
		return false
	}
	key := fmt.Sprint(positions)
	if v, ok := m.cache[key]; ok {
		return v
	}
	ok := m.matchesTarget(positions)
	m.cache[key] = ok
	return ok
}

// ddmin is Zeller's minimizing delta debugging over the fire set. On
// termination the result is 1-minimal: removing any single kept switch no
// longer reproduces the target (the final granularity tries exactly the
// leave-one-out complements).
func (m *minimizer) ddmin(items []uint64) []uint64 {
	if len(items) == 0 {
		return items
	}
	// The empty schedule first: if the fault needs no preemptions at all,
	// the answer is trivial.
	if m.test(nil) {
		return nil
	}
	n := 2
	for len(items) >= 2 {
		chunk := (len(items) + n - 1) / n
		reduced := false
		for i := 0; i < len(items); i += chunk {
			end := i + chunk
			if end > len(items) {
				end = len(items)
			}
			if m.test(items[i:end]) {
				items = append([]uint64(nil), items[i:end]...)
				n = 2
				reduced = true
				break
			}
		}
		if !reduced && n > 2 {
			for i := 0; i < len(items); i += chunk {
				end := i + chunk
				if end > len(items) {
					end = len(items)
				}
				comp := make([]uint64, 0, len(items)-(end-i))
				comp = append(comp, items[:i]...)
				comp = append(comp, items[end:]...)
				if m.test(comp) {
					items = comp
					if n > 2 {
						n--
					}
					reduced = true
					break
				}
			}
		}
		if !reduced {
			if n >= len(items) {
				break
			}
			n *= 2
			if n > len(items) {
				n = len(items)
			}
			m.logf("minimize: granularity %d (%d switches kept, %d candidates)", n, len(items), m.candidates)
		}
	}
	if len(items) == 1 && m.test(nil) {
		return nil
	}
	return items
}

// sitePreemptor wraps the scripted preemptor to capture the program site
// of every fired preemption: the engine consults Pending synchronously at
// the yield point, so the observer's last stepped instruction is the
// context being preempted.
type sitePreemptor struct {
	inner *core.ScriptedPreemptor
	so    *siteObserver
	fired []Switch
}

func (p *sitePreemptor) Pending() bool {
	f := p.inner.Pending()
	if f {
		s := p.so.last
		s.Position = p.inner.Consulted()
		p.fired = append(p.fired, s)
	}
	return f
}

type siteObserver struct {
	prog *bytecode.Program
	last Switch
}

func (s *siteObserver) OnStep(threadID, methodID, pc int, op bytecode.Opcode) {
	sw := Switch{Thread: threadID, PC: pc}
	if methodID >= 0 && methodID < len(s.prog.Methods) {
		meth := s.prog.Methods[methodID]
		sw.Method = meth.FullName()
		if pc >= 0 && pc < len(meth.Lines) {
			sw.Line = int(meth.Lines[pc])
		}
	}
	s.last = sw
}

func (s *siteObserver) OnOutput([]byte) {}
func (s *siteObserver) OnSwitch(int)    {}

// sites re-runs the minimal schedule once more with a site-capturing
// observer, labeling every kept switch with thread/method/pc/line.
func (m *minimizer) sites(minimal []uint64) ([]Switch, error) {
	if len(minimal) == 0 {
		return nil, nil
	}
	so := &siteObserver{prog: m.prog}
	sp := &sitePreemptor{inner: core.NewScriptedPreemptor(minimal), so: so}
	o := m.o.Record
	baseE := o.TweakEngine
	o.TweakEngine = func(cfg *core.Config) {
		if baseE != nil {
			baseE(cfg)
		}
		cfg.Preempt = sp
	}
	baseV := o.TweakVM
	o.TweakVM = func(cfg *vm.Config) {
		if baseV != nil {
			baseV(cfg)
		}
		cfg.Observer = so
	}
	if _, err := replaycheck.Record(m.prog, o); err != nil {
		return nil, fmt.Errorf("minimize: site pass: %w", err)
	}
	return sp.fired, nil
}
