// Segmented-journal orchestration: record into a journal directory,
// replay it from the start, or replay it seeded from the nearest durable
// checkpoint at or before a target event.
package replaycheck

import (
	"errors"
	"fmt"

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
	o = o.fill()
	sw, err := trace.NewSegmentWriter(fs, vm.ProgramHash(prog), trace.SegmentOptions{
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
	res, err := record(prog, o, sw)
	if cerr := sw.Close(); cerr != nil && err == nil {
		return res, fmt.Errorf("record journal: %w", cerr)
	}
	return res, err
}

// SeedInfo says where a journal replay actually started.
type SeedInfo struct {
	Segment    int               // first segment replayed
	VMEvents   uint64            // instruction count at the seed point (0 = from zero)
	Checkpoint *trace.Checkpoint // nil when replay started from zero
}

// ReplayJournal replays a journal from its beginning. When the journal is
// incomplete (crash-cut recording), replay runs in partial-trace mode and
// stops at the salvage point with core.ErrPartialTrace.
func ReplayJournal(prog *bytecode.Program, fs trace.FS, o Options) (*Result, *trace.Journal, error) {
	res, _, j, err := replayJournal(prog, fs, 0, false, o)
	return res, j, err
}

// ReplayJournalFrom replays a journal seeded from the best loadable
// checkpoint at or before target instructions — O(segment) instead of
// O(trace). Torn or corrupt checkpoint files, and checkpoints the VM
// refuses, are skipped (earlier ones are tried); with none usable the
// replay falls back to from-zero.
func ReplayJournalFrom(prog *bytecode.Program, fs trace.FS, target uint64, o Options) (*Result, *SeedInfo, error) {
	res, info, _, err := replayJournal(prog, fs, target, true, o)
	return res, info, err
}

func replayJournal(prog *bytecode.Program, fs trace.FS, target uint64, seeded bool, o Options) (*Result, *SeedInfo, *trace.Journal, error) {
	j, err := trace.OpenJournal(fs)
	if err != nil {
		return nil, nil, nil, err
	}
	if h := vm.ProgramHash(prog); j.ProgHash() != h {
		return nil, nil, j, fmt.Errorf("replaycheck: journal program hash mismatch: journal %x, program %x", j.ProgHash(), h)
	}
	// A flight-recorder flush (Origin > 0) cannot replay from zero: its
	// pre-window history was evicted and segment 0 is a synthetic
	// placeholder, so a from-zero run would silently diverge. Force seeding
	// and clamp the target to the window start.
	org := j.Origin()
	if org > 0 {
		seeded = true
		if target < org {
			target = org
		}
	}
	var ck *trace.Checkpoint
	if seeded {
		ck = j.BestCheckpoint(target)
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
	for {
		if org > 0 && (ck == nil || ck.VMEvents < org) {
			return nil, nil, j, fmt.Errorf("replaycheck: flight journal starts at event %d and has no loadable checkpoint covering it", org)
		}
		info := &SeedInfo{Checkpoint: ck}
		if ck != nil {
			info.Segment, info.VMEvents = ck.Index, ck.VMEvents
		}
		src, err := j.Source(info.Segment)
		if err != nil {
			return nil, nil, j, err
		}
		res, err := replay(prog, nil, src, o, ck)
		if ck == nil || !errors.Is(err, vm.ErrCheckpointRefused) {
			return res, info, j, err
		}
		// The VM refused the checkpoint (one in an older format, say):
		// seed from an earlier one, or from zero.
		ck = j.CheckpointBefore(ck)
	}
}
