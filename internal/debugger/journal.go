// Journal-backed debugging: a debugger over a segmented journal recording.
// Its one VM replays the whole journal, loaded into a seekable Reader, and
// the journal's durable checkpoints restore into that VM in place as travel
// starts, next to the in-memory ones (replaycheck.RestoreDurable), so no
// travel replays more than the gap between two checkpoints.
package debugger

import (
	"fmt"

	"dejavu/internal/core"
	"dejavu/internal/obs"
	"dejavu/internal/replaycheck"
	"dejavu/internal/trace"
	"dejavu/internal/vm"
)

// OpenJournal opens the journal on fs and starts a debugger over it, a VM
// loaded from img (the journal's program), positioned at the given event
// count. It anchors an in-memory checkpoint
// at event zero (a flight window's at its origin checkpoint) and travels
// to event, which starts from the nearest durable checkpoint at or before
// it: attaching deep into a long recording replays one segment, not the
// whole run. Incomplete (crash-cut) journals open in partial-trace mode:
// stepping past the salvage point surfaces the truncation instead of
// diverging. reg, when set, is attached to the replay engine; metrics are
// excluded from engine snapshots, so a debugger with a registry replays
// identically to one without.
func OpenJournal(img *vm.Image, fs trace.FS, event uint64, reg *obs.Registry) (*Debugger, error) {
	j, err := trace.OpenJournal(fs)
	if err != nil {
		return nil, err
	}
	if h := img.Hash(); j.ProgHash() != h {
		return nil, fmt.Errorf("debugger: journal program hash mismatch: journal %x, program %x", j.ProgHash(), h)
	}
	src, err := j.Source()
	if err != nil {
		return nil, fmt.Errorf("debugger: %w", err)
	}
	r, err := src.Load()
	if err != nil {
		return nil, fmt.Errorf("debugger: %w", err)
	}
	ecfg := core.DefaultConfig(core.ModeReplay)
	ecfg.ProgHash = img.Hash()
	ecfg.TraceSrc = r
	ecfg.PartialTrace = !j.Complete()
	ecfg.Obs = reg
	eng, err := core.NewEngine(ecfg)
	if err != nil {
		return nil, err
	}
	m, err := vm.Load(img, vm.Config{Engine: eng})
	if err != nil {
		return nil, err
	}
	if org := j.Origin(); org > 0 {
		// A flight window has no history before its origin.
		if _, err := replaycheck.RestoreDurable(m, j, r, 0, org, nil); err != nil {
			return nil, fmt.Errorf("debugger: %w", err)
		}
	}
	d := New(m)
	d.journal, d.reader, d.obs = j, r, reg
	// The anchor keeps a start for every travel target in the journal.
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

// Reseeds reports how many travels started from a durable checkpoint
// restored into the VM, OpenJournal's travel to its start included.
func (d *Debugger) Reseeds() uint64 { return d.reseeds }

// restoreDurable restores into the VM the newest usable durable checkpoint
// at or before event that starts after the given start (any, when have is
// false), and reports whether one took (replaycheck.RestoreDurable). A
// tainted debugger never restores one: it would silently resurrect the
// unmodified recording.
func (d *Debugger) restoreDurable(event, after uint64, have bool) (bool, error) {
	if d.journal == nil || d.tainted {
		return false, nil
	}
	var floor uint64
	if have {
		floor = after + 1
	}
	ck, err := replaycheck.RestoreDurable(d.VM, d.journal, d.reader, floor, event, nil)
	if ck == nil {
		return false, err
	}
	d.reseeds++
	d.obs.Counter("dv_journal_reseeds_total").Inc()
	return true, nil
}
