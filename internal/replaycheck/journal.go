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
	res, _, j, err := replayJournal(prog, fs, 0, o)
	return res, j, err
}

// ReplayJournalFrom replays a journal seeded from the best loadable
// checkpoint at or before target instructions — O(segment) instead of
// O(trace). Torn or corrupt checkpoint files, and checkpoints the VM
// refuses, are skipped (earlier ones are tried); with none usable the
// replay falls back to from-zero.
func ReplayJournalFrom(prog *bytecode.Program, fs trace.FS, target uint64, o Options) (*Result, *SeedInfo, error) {
	res, info, _, err := replayJournal(prog, fs, target, o)
	return res, info, err
}

func replayJournal(prog *bytecode.Program, fs trace.FS, target uint64, o Options) (*Result, *SeedInfo, *trace.Journal, error) {
	j, err := trace.OpenJournal(fs)
	if err != nil {
		return nil, nil, nil, err
	}
	if h := vm.ProgramHash(prog); j.ProgHash() != h {
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
	var d *Digest
	m, info, err := SeedJournal(j, target, func(src *trace.StreamReader) (m *vm.VM, err error) {
		m, d, err = newReplay(prog, nil, src, o)
		return m, err
	}, nil)
	if err != nil {
		return nil, nil, j, err
	}
	return runReplay(m, d), info, j, nil
}

// SeedJournal is the one seeding rule for replay over a journal: it opens
// a replay VM at the best loadable durable checkpoint at or before target
// (target 0 replays from zero). A flight window (Origin > 0) has no
// history before its origin, so target is clamped to the origin and the
// seed refused when no checkpoint covers it: a from-zero replay would
// silently diverge. open builds a fresh replay VM over the trace suffix
// src; SeedJournal restores the checkpoint into it and moves its engine to
// the suffix's first seam (vm.VM.RestoreSeam). When the VM refuses a
// checkpoint (an older format, a different heap size), refused (if set)
// hears why, and the next earlier checkpoint is tried, down to zero.
func SeedJournal(j *trace.Journal, target uint64, open func(src *trace.StreamReader) (*vm.VM, error), refused func(error)) (*vm.VM, *SeedInfo, error) {
	org := j.Origin()
	if target < org {
		target = org
	}
	var ck *trace.Checkpoint
	if target > 0 {
		ck = j.BestCheckpoint(target)
	}
	for {
		if org > 0 && (ck == nil || ck.VMEvents < org) {
			return nil, nil, fmt.Errorf("flight journal starts at event %d and has no loadable checkpoint covering it", org)
		}
		info := &SeedInfo{Checkpoint: ck}
		if ck != nil {
			info.Segment, info.VMEvents = ck.Index, ck.VMEvents
		}
		m, err := seedAt(j, info, open)
		if ck == nil || !errors.Is(err, vm.ErrCheckpointRefused) {
			return m, info, err
		}
		if refused != nil {
			refused(err)
		}
		ck = j.CheckpointBefore(ck)
	}
}

// seedAt opens a replay VM over the journal suffix info names and
// restores its checkpoint, if any, at the suffix's first seam: the zero
// position of the fresh trace source.
func seedAt(j *trace.Journal, info *SeedInfo, open func(*trace.StreamReader) (*vm.VM, error)) (*vm.VM, error) {
	src, err := j.Source(info.Segment)
	if err != nil {
		return nil, err
	}
	m, err := open(src)
	if err != nil || info.Checkpoint == nil {
		return m, err
	}
	ck := info.Checkpoint
	if err := m.RestoreSeam(ck.State, trace.ReaderPos{}, ck.BoundaryNYP); err != nil {
		return nil, fmt.Errorf("seed checkpoint %d: %w", ck.Index, err)
	}
	return m, nil
}
