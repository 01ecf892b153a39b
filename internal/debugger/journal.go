// Journal-backed debugging: a debugger over a segmented journal recording.
// Travel targets before the in-memory checkpoint horizon are served by
// re-seeding the debugger's VM from the nearest durable segment checkpoint
// and replaying only that segment suffix — O(segment) instead of O(trace).
package debugger

import (
	"fmt"

	"dejavu/internal/bytecode"
	"dejavu/internal/core"
	"dejavu/internal/obs"
	"dejavu/internal/remoteref"
	"dejavu/internal/replaycheck"
	"dejavu/internal/trace"
	"dejavu/internal/vm"
)

// OpenJournal opens the journal on fs and starts a debugger over it,
// positioned at the given event count. It seeds from the nearest durable
// checkpoint at or before event, so attaching deep into a long recording
// costs one segment suffix, not a from-zero replay. Incomplete (crash-cut)
// journals open in partial-trace mode: stepping past the salvage point
// surfaces the truncation instead of diverging. reg, when set, is attached
// to the replay engine of every VM the debugger builds, so engine metrics
// survive durable re-seeds; metrics are excluded from engine snapshots, so
// a debugger with a registry replays identically to one without.
func OpenJournal(prog *bytecode.Program, fs trace.FS, event uint64, reg *obs.Registry) (*Debugger, error) {
	j, err := trace.OpenJournal(fs)
	if err != nil {
		return nil, err
	}
	if h := vm.ProgramHash(prog); j.ProgHash() != h {
		return nil, fmt.Errorf("debugger: journal program hash mismatch: journal %x, program %x", j.ProgHash(), h)
	}
	m, err := seed(j, reg, prog, event)
	if err != nil {
		return nil, err
	}
	d := New(m)
	d.journal, d.obs = j, reg
	// Anchor an in-memory checkpoint at the seed point itself, so travel
	// back to anywhere at or after it stays in memory.
	d.maybeCheckpoint()
	if event > m.Events() {
		if err := d.TravelTo(event); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// Journal returns the journal the debugger replays (manifest, checkpoints,
// salvage report), or nil for a flat trace.
func (d *Debugger) Journal() *trace.Journal { return d.journal }

// Reseeds reports how many travels re-seeded the VM from a durable
// checkpoint.
func (d *Debugger) Reseeds() uint64 { return d.reseeds }

// seed builds a replay VM over the journal, seeded from the best loadable
// durable checkpoint at or before event (replaycheck.SeedJournal). The
// suffix is loaded into a Reader so the engine stays seekable and the
// debugger's in-memory checkpoints keep working.
func seed(j *trace.Journal, reg *obs.Registry, prog *bytecode.Program, event uint64) (*vm.VM, error) {
	m, _, err := replaycheck.SeedJournal(j, event, func(src *trace.StreamReader) (*vm.VM, error) {
		r, err := src.Load()
		if err != nil {
			return nil, err
		}
		ecfg := core.DefaultConfig(core.ModeReplay)
		ecfg.ProgHash = vm.ProgramHash(prog)
		ecfg.TraceSrc = r
		ecfg.PartialTrace = !j.Complete()
		ecfg.Obs = reg
		eng, err := core.NewEngine(ecfg)
		if err != nil {
			return nil, err
		}
		return vm.New(prog, vm.Config{Engine: eng})
	}, nil)
	if err != nil {
		return nil, fmt.Errorf("debugger: %w", err)
	}
	return m, nil
}

// reseed serves a travel target no in-memory checkpoint covers: it
// replaces the VM with one seeded from the best durable checkpoint at or
// before event and replays forward to event. Breakpoints, the checkpoint
// policy and the taint flag are kept; the in-memory checkpoints belonged
// to the old VM and are dropped. On failure the debugger is left as it was.
// A tainted debugger refuses: a re-seed would silently resurrect the
// unmodified recording.
func (d *Debugger) reseed(event uint64) error {
	if d.tainted {
		return fmt.Errorf("debugger: session is tainted (state was modified); travel to event %d would discard the modification — no durable re-seed", event)
	}
	m, err := seed(d.journal, d.obs, d.VM.Program(), event)
	if err != nil {
		return err
	}
	prev := *d
	d.VM, d.World, d.checkpoints = m, remoteref.NewLocalWorld(m), nil
	d.maybeCheckpoint()
	if err := d.replayTo(event); err != nil {
		*d = prev
		return err
	}
	d.reseeds++
	d.obs.Counter("dv_journal_reseeds_total").Inc()
	return nil
}
