// Journal sessions: a debugger over a segmented journal recording.
// Travel targets before the in-memory checkpoint horizon are served by
// re-seeding a fresh VM from the nearest durable segment checkpoint and
// replaying only that segment suffix — O(segment) instead of O(trace).
package debugger

import (
	"errors"
	"fmt"

	"dejavu/internal/bytecode"
	"dejavu/internal/core"
	"dejavu/internal/obs"
	"dejavu/internal/trace"
	"dejavu/internal/vm"
)

// JournalSession wraps a Debugger whose trace comes from a segmented
// journal. The embedded Debugger is replaced wholesale when a travel
// target forces a durable re-seed, so callers must always reach it
// through the D field rather than holding their own reference.
type JournalSession struct {
	Prog *bytecode.Program
	D    *Debugger

	// CheckpointEvery seeds the in-memory checkpoint cadence of every
	// debugger this session builds (current and re-seeded).
	CheckpointEvery uint64

	// Obs, when set, is attached to the replay engine of every debugger
	// this session builds, so engine metrics survive durable re-seeds.
	// Metrics are excluded from engine snapshots, so a session with a
	// registry replays identically to one without.
	Obs *obs.Registry

	fs      trace.FS
	j       *trace.Journal
	reseeds uint64
}

// OpenJournalSession opens the journal on fs and starts a from-zero
// debugging session over it. Incomplete (crash-cut) journals open in
// partial-trace mode: stepping past the salvage point surfaces the
// truncation instead of diverging.
func OpenJournalSession(prog *bytecode.Program, fs trace.FS) (*JournalSession, error) {
	return OpenJournalSessionAt(prog, fs, 0)
}

// OpenJournalSessionAt opens a session already positioned at the given
// event count, seeding from the nearest durable checkpoint at or before
// it — attaching deep into a long recording costs one segment suffix, not
// a from-zero replay.
func OpenJournalSessionAt(prog *bytecode.Program, fs trace.FS, event uint64) (*JournalSession, error) {
	return OpenJournalSessionObs(prog, fs, event, nil)
}

// OpenJournalSessionObs is OpenJournalSessionAt with a metrics registry
// attached to every engine the session builds.
func OpenJournalSessionObs(prog *bytecode.Program, fs trace.FS, event uint64, reg *obs.Registry) (*JournalSession, error) {
	j, err := trace.OpenJournal(fs)
	if err != nil {
		return nil, err
	}
	if h := vm.ProgramHash(prog); j.ProgHash() != h {
		return nil, fmt.Errorf("debugger: journal program hash mismatch: journal %x, program %x", j.ProgHash(), h)
	}
	s := &JournalSession{Prog: prog, fs: fs, j: j, CheckpointEvery: 25_000, Obs: reg}
	// A flight-recorder flush (Origin > 0) has no replayable history before
	// the window start: clamp the opening position to the origin and refuse
	// outright if no durable checkpoint covers it — seeding from zero would
	// silently replay the wrong execution.
	if org := j.Origin(); org > 0 && event < org {
		event = org
	}
	if s.D, err = s.seed(event); err != nil {
		return nil, err
	}
	if event > s.D.VM.Events() {
		if err := s.D.TravelTo(event); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Journal exposes the opened journal (manifest, checkpoints, salvage
// report) for inspection.
func (s *JournalSession) Journal() *trace.Journal { return s.j }

// seed builds a debugger from the best durable checkpoint at or before
// event. A checkpoint the VM refuses (one in an older format, say) falls
// back to an earlier one, and finally to zero, which is always available
// except in a flight window.
func (s *JournalSession) seed(event uint64) (*Debugger, error) {
	var ck *trace.Checkpoint
	if event > 0 {
		ck = s.j.BestCheckpoint(event)
	}
	for {
		if org := s.j.Origin(); org > 0 && (ck == nil || ck.VMEvents < org) {
			return nil, fmt.Errorf("debugger: flight journal starts at event %d and has no loadable checkpoint covering it", org)
		}
		d, err := s.newDebugger(ck)
		if ck == nil || !errors.Is(err, vm.ErrCheckpointRefused) {
			return d, err
		}
		ck = s.j.CheckpointBefore(ck)
	}
}

// newDebugger builds a fresh replaying VM over the journal suffix the
// checkpoint covers (the whole journal when ck is nil), restores the
// durable checkpoint state, and aligns the engine's switch countdown.
// The suffix is loaded into a Reader so the engine stays seekable and the
// debugger's own in-memory checkpoints keep working.
func (s *JournalSession) newDebugger(ck *trace.Checkpoint) (*Debugger, error) {
	seg := 0
	if ck != nil {
		seg = ck.Index
	}
	src, err := s.j.Source(seg)
	if err != nil {
		return nil, err
	}
	r, err := src.Load()
	if err != nil {
		return nil, err
	}
	ecfg := core.DefaultConfig(core.ModeReplay)
	ecfg.ProgHash = vm.ProgramHash(s.Prog)
	ecfg.TraceSrc = r
	ecfg.PartialTrace = !s.j.Complete()
	ecfg.Obs = s.Obs
	eng, err := core.NewEngine(ecfg)
	if err != nil {
		return nil, err
	}
	m, err := vm.New(s.Prog, vm.Config{Engine: eng})
	if err != nil {
		return nil, err
	}
	if ck != nil {
		if err := m.RestoreBytes(ck.State); err != nil {
			return nil, fmt.Errorf("debugger: seed checkpoint %d: %w", ck.Index, err)
		}
		if err := eng.SeedReplay(ck.BoundaryNYP); err != nil {
			return nil, fmt.Errorf("debugger: seed checkpoint %d: %w", ck.Index, err)
		}
	}
	d := New(m)
	d.CheckpointEvery = s.CheckpointEvery
	// Anchor an in-memory checkpoint at the seed point itself, so travel
	// back to anywhere at or after it stays in-session.
	d.maybeCheckpoint()
	return d, nil
}

// TravelTo moves the session to the given event count. Targets the
// current debugger can serve from its in-memory checkpoints (or by
// running forward) stay in-session; earlier targets re-seed from the
// best durable checkpoint at or before the target. A tainted session
// (SetStatic) refuses durable re-seeds: they would silently resurrect
// the unmodified recording.
func (s *JournalSession) TravelTo(event uint64) error {
	// Clamp flight-window travel to the origin: events before the window
	// start were evicted and cannot be reconstructed.
	if org := s.j.Origin(); org > 0 && event < org {
		event = org
	}
	if event >= s.D.VM.Events() || s.D.canTravelTo(event) {
		return s.D.TravelTo(event)
	}
	if s.D.Tainted() {
		return fmt.Errorf("debugger: session is tainted (state was modified); travel to event %d would discard the modification — no durable re-seed", event)
	}
	d, err := s.seed(event)
	if err != nil {
		return err
	}
	if err := d.TravelTo(event); err != nil {
		return err
	}
	s.D = d
	s.reseeds++
	s.Obs.Counter("dv_journal_reseeds_total").Inc()
	return nil
}

// Reseeds reports how many travels forced a durable re-seed (a wholesale
// VM replacement from an on-disk checkpoint). Callers synchronize access
// the same way they do for D: under whatever lock serializes commands.
func (s *JournalSession) Reseeds() uint64 { return s.reseeds }

// canTravelTo reports whether an in-memory checkpoint at or before event
// exists, i.e. whether TravelTo can serve the rewind without re-seeding.
func (d *Debugger) canTravelTo(event uint64) bool {
	for _, s := range d.checkpoints {
		if s.Events() <= event {
			return true
		}
	}
	return false
}
