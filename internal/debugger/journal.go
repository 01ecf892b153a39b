// Journal-backed debugging: a debugger over a segmented journal recording.
// Its VM replays the journal suffix from the durable checkpoint it was
// seeded at, and the suffix's later durable checkpoints restore into that
// VM in place as travel starts, next to the in-memory ones. Only a target
// before the suffix re-seeds: a fresh VM over an earlier suffix, seeded
// from the nearest durable checkpoint — O(segment) instead of O(trace).
package debugger

import (
	"fmt"
	"sort"

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
	m, sfx, err := seed(j, reg, prog, event)
	if err != nil {
		return nil, err
	}
	d := New(m)
	d.journal, d.suffix, d.obs = j, sfx, reg
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

// Reseeds reports how many travels started from a durable checkpoint:
// restored into the VM in place, or by a re-seed.
func (d *Debugger) Reseeds() uint64 { return d.reseeds }

func (d *Debugger) noteReseed() {
	d.reseeds++
	d.obs.Counter("dv_journal_reseeds_total").Inc()
}

// suffix is the part of a journal a journal-backed debugger's VM replays:
// the trace Reader loaded from Journal.Source(seg), which starts at VM
// event start (checkpoint seg's VMEvents, or zero). Checkpoint seg+i
// restores into the VM at r.SegmentStart(i).
type suffix struct {
	r     *trace.Reader
	seg   int
	start uint64
}

// seed builds a replay VM over the journal, seeded from the best loadable
// durable checkpoint at or before event (replaycheck.SeedJournal). The
// suffix is loaded into a Reader so the engine stays seekable: the
// debugger's in-memory checkpoints and the suffix's later durable ones
// restore into the VM in place.
func seed(j *trace.Journal, reg *obs.Registry, prog *bytecode.Program, event uint64) (*vm.VM, suffix, error) {
	var r *trace.Reader
	m, info, err := replaycheck.SeedJournal(j, event, func(src *trace.StreamReader) (*vm.VM, error) {
		var err error
		if r, err = src.Load(); err != nil {
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
		return nil, suffix{}, fmt.Errorf("debugger: %w", err)
	}
	return m, suffix{r: r, seg: info.Segment, start: info.VMEvents}, nil
}

// restoreDurable restores into the VM the latest usable durable checkpoint
// of the loaded suffix at or before event that starts after the given
// start (any, when have is false), and reports whether one took. It skips
// checkpoint files it cannot read, as Journal.BestCheckpoint does, and
// ones the VM refuses or whose seam they do not fit; RestoreSeam checks
// both before it changes anything. A tainted debugger never restores one:
// it would silently resurrect the unmodified recording.
func (d *Debugger) restoreDurable(event, after uint64, have bool) bool {
	if d.journal == nil || d.tainted {
		return false
	}
	cks := d.journal.Manifest.Checkpoints
	i := sort.Search(len(cks), func(i int) bool { return cks[i].VMEvents > event })
	for i--; i >= 0; i-- {
		info := cks[i]
		if (have && info.VMEvents <= after) || info.Index < d.suffix.seg {
			return false
		}
		pos, ok := d.suffix.r.SegmentStart(info.Index - d.suffix.seg)
		if !ok {
			continue
		}
		ck, err := d.journal.LoadCheckpoint(info)
		if err != nil || d.VM.RestoreSeam(ck.State, pos, ck.BoundaryNYP) != nil {
			continue
		}
		d.noteReseed()
		return true
	}
	return false
}

// reseed serves a travel target before the loaded suffix (or, with no
// start left in it, any target): it replaces the VM with one seeded from
// the best durable checkpoint at or before event and replays forward to
// event. Breakpoints, the checkpoint policy and the taint flag are kept;
// the in-memory checkpoints belonged to the old VM and are dropped. On
// failure the debugger is left as it was. A tainted debugger refuses: a
// re-seed would silently resurrect the unmodified recording.
func (d *Debugger) reseed(event uint64) error {
	if d.tainted {
		return fmt.Errorf("debugger: session is tainted (state was modified); travel to event %d would discard the modification — no durable re-seed", event)
	}
	m, sfx, err := seed(d.journal, d.obs, d.VM.Program(), event)
	if err != nil {
		return err
	}
	prev := *d
	d.VM, d.World, d.checkpoints, d.suffix = m, remoteref.NewLocalWorld(m), nil, sfx
	d.maybeCheckpoint()
	if err := d.replayTo(event); err != nil {
		*d = prev
		return err
	}
	d.noteReseed()
	return nil
}
