// Segmented-journal orchestration: record into a journal directory,
// replay it from the start, or replay it seeded from the nearest durable
// checkpoint at or before a target event.
package replaycheck

import (
	"errors"
	"fmt"
	"sort"

	"dejavu/internal/bytecode"
	"dejavu/internal/core"
	"dejavu/internal/trace"
	"dejavu/internal/vm"
)

// RecordJournal executes prog in record mode with the trace rotated into a
// segmented journal on fs (Options.RotateEvents / RotateBytes set the
// policy). The VM drives rotation, so every segment boundary carries a
// checkpoint taken at an instruction boundary.
func RecordJournal(prog *bytecode.Program, fs trace.FS, o Options) (*Result, error) {
	o, err := o.withImage(prog)
	if err != nil {
		return nil, err
	}
	o = o.fill()
	sw, err := trace.NewSegmentWriter(fs, o.Image.Hash(), trace.SegmentOptions{
		StreamOptions:   trace.StreamOptions{ChunkBytes: o.ChunkBytes, Sync: o.Sync},
		RotateEvents:    o.RotateEvents,
		RotateBytes:     o.RotateBytes,
		MaxJournalBytes: o.MaxJournalBytes,
	})
	if err != nil {
		return nil, err
	}
	tweak := o.TweakVM
	o.TweakVM = func(cfg *vm.Config) {
		if tweak != nil {
			tweak(cfg)
		}
		cfg.Journal = sw
	}
	res, err := record(o, sw)
	if cerr := sw.Close(); cerr != nil && err == nil {
		return res, fmt.Errorf("record journal: %w", cerr)
	}
	return res, err
}

// SeedInfo says where a journal replay actually started.
type SeedInfo struct {
	Segment    int               // segment whose seam replay started at
	VMEvents   uint64            // instruction count at the seed point (0 = from zero)
	Checkpoint *trace.Checkpoint // nil when replay started from zero
}

// ReplayJournal replays a journal from its beginning. When the journal is
// incomplete (crash-cut recording), replay runs in partial-trace mode and
// stops at the salvage point with core.ErrPartialTrace.
func ReplayJournal(prog *bytecode.Program, fs trace.FS, o Options) (*Result, *trace.Journal, error) {
	res, _, j, err := replayJournal(prog, fs, 0, o)
	return res, j, err
}

// ReplayJournalFrom replays a journal seeded from the newest usable
// checkpoint at or before target instructions (see RestoreDurable), so it
// executes O(segment) instructions instead of O(trace); with none usable
// the replay starts from zero.
func ReplayJournalFrom(prog *bytecode.Program, fs trace.FS, target uint64, o Options) (*Result, *SeedInfo, error) {
	res, info, _, err := replayJournal(prog, fs, target, o)
	return res, info, err
}

func replayJournal(prog *bytecode.Program, fs trace.FS, target uint64, o Options) (*Result, *SeedInfo, *trace.Journal, error) {
	o, err := o.withImage(prog)
	if err != nil {
		return nil, nil, nil, err
	}
	j, err := trace.OpenJournal(fs)
	if err != nil {
		return nil, nil, nil, err
	}
	if h := o.Image.Hash(); j.ProgHash() != h {
		return nil, nil, j, fmt.Errorf("replaycheck: journal program hash mismatch: journal %x, program %x", j.ProgHash(), h)
	}
	if !j.Complete() {
		tweak := o.TweakEngine
		o.TweakEngine = func(cfg *core.Config) {
			cfg.PartialTrace = true
			if tweak != nil {
				tweak(cfg)
			}
		}
	}
	src, err := j.Source()
	if err != nil {
		return nil, nil, j, err
	}
	// From zero, replay streams the journal; a seeded replay loads it
	// whole, to restore a checkpoint at its segment's seam.
	var r *trace.Reader
	var replaySrc trace.Source = src
	if target > 0 || j.Origin() > 0 {
		if r, err = src.Load(); err != nil {
			return nil, nil, j, err
		}
		replaySrc = r
	}
	m, d, err := newReplay(nil, replaySrc, o)
	if err != nil {
		return nil, nil, j, err
	}
	info := &SeedInfo{}
	if r != nil {
		ck, err := RestoreDurable(m, j, r, 0, target, nil)
		if err != nil {
			return nil, nil, j, err
		}
		if ck != nil {
			info = &SeedInfo{Segment: ck.Index, VMEvents: ck.VMEvents, Checkpoint: ck}
		}
	}
	return runReplay(m, d), info, j, nil
}

// RestoreDurable is the one seeding rule for replay over a journal. m is
// a replay VM over r, the whole of journal j loaded (j.Source then Load).
// RestoreDurable restores into m, in place, the newest usable durable
// checkpoint of j at or after floor and at or before target instructions,
// at the seam where its segment starts in r (vm.VM.RestoreSeam), and
// returns it. It skips a torn or corrupt checkpoint file, a checkpoint the
// VM refuses (an older format, another heap size) and one that does not
// fit its seam; RestoreSeam checks both before it changes anything, so a
// skipped checkpoint leaves m as it was. skipped (if set) hears why each
// was skipped. With none restored it returns nil and m is untouched; a
// caller with a VM at event zero then replays from there. A checkpoint
// file the store cannot read is an error, not a skip.
//
// A flight window (Origin > 0) has no history before its origin, so target
// and floor rise to it, and with nothing restored RestoreDurable fails
// unless the caller has its own start past the origin (floor > Origin):
// a replay from zero would silently diverge.
func RestoreDurable(m *vm.VM, j *trace.Journal, r *trace.Reader, floor, target uint64, skipped func(error)) (*trace.Checkpoint, error) {
	org := j.Origin()
	cks := j.Manifest.Checkpoints
	i := sort.Search(len(cks), func(i int) bool { return cks[i].VMEvents > max(target, org) })
	for i--; i >= 0 && cks[i].VMEvents >= max(floor, org); i-- {
		info := cks[i]
		pos, ok := r.SegmentStart(info.Index)
		if !ok {
			continue
		}
		ck, err := j.LoadCheckpoint(info)
		if err == nil {
			if err = m.RestoreSeam(ck.State, pos, ck.BoundaryNYP); err == nil {
				return ck, nil
			}
		} else if !errors.Is(err, trace.ErrCheckpoint) {
			return nil, err
		}
		if skipped != nil {
			skipped(fmt.Errorf("checkpoint %d: %w", info.Index, err))
		}
	}
	if org > 0 && floor <= org {
		return nil, fmt.Errorf("flight journal starts at event %d and has no loadable checkpoint covering it", org)
	}
	return nil, nil
}
