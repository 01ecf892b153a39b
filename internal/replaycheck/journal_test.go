// Segmented-journal integration: record into a journal, replay it whole,
// replay it seeded from durable checkpoints, and bound hung verify jobs.
package replaycheck_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"time"

	"dejavu/internal/bytecode"
	"dejavu/internal/core"
	"dejavu/internal/debugger"
	"dejavu/internal/faults/memfs"
	"dejavu/internal/heap"
	"dejavu/internal/replaycheck"
	"dejavu/internal/trace"
	"dejavu/internal/vm"
	"dejavu/internal/workloads"
)

// journalProg polls external events through native callbacks — the densest
// trace mix available — so small rotation thresholds produce real
// multi-segment journals. (Trace events are switches/natives/clocks, not
// instructions; compute-heavy workloads log almost nothing.)
func journalProg() *bytecode.Program { return workloads.Events(12) }

func journalOptions() replaycheck.Options {
	return replaycheck.Options{
		Seed: 11, HostRand: 11, KeepEvents: 1 << 20,
		ChunkBytes: 24, RotateEvents: 8,
		PreemptMin: 2, PreemptMax: 9,
		HeapBytes: 1 << 17, // small heap keeps per-segment checkpoints small
	}
}

// journalReplayOptions mirrors the record-side VM geometry: replay must
// build the same VM (heap size included) for images and checkpoints to
// line up.
func journalReplayOptions() replaycheck.Options {
	return replaycheck.Options{KeepEvents: 1 << 20, HeapBytes: 1 << 17}
}

// TestJournalRecordReplayRoundTrip: a recording rotated across many
// segments replays behaviorally identical to the recorded run.
func TestJournalRecordReplayRoundTrip(t *testing.T) {
	fs := memfs.New()
	rec, err := replaycheck.RecordJournal(journalProg(), fs, journalOptions())
	if err != nil || rec.RunErr != nil {
		t.Fatalf("record journal: %v / %v", err, rec.RunErr)
	}
	rep, j, err := replaycheck.ReplayJournal(journalProg(), fs, journalReplayOptions())
	if err != nil {
		t.Fatalf("replay journal: %v", err)
	}
	if rep.RunErr != nil {
		t.Fatalf("replay run: %v", rep.RunErr)
	}
	if got := j.Segments(); got < 3 {
		t.Fatalf("rotation never fired: %d segments", got)
	}
	if !j.Complete() {
		t.Fatalf("journal incomplete after clean close: %s", j)
	}
	if err := replaycheck.CompareRuns(rec, rep); err != nil {
		t.Fatal(err)
	}
}

// TestJournalSeededReplayMatchesFromZero is the checkpoint-seeding
// acceptance bar: for EVERY durable checkpoint in a journal, replay
// seeded from it must land on exactly the final state a from-zero replay
// reaches — same events, output, heap image, and per-thread logical
// clocks — and its event digest must be a suffix of the from-zero one.
// The journals are recorded on Run's fast path, for the callback-dense
// events program and for every corpus workload at two rotation
// thresholds.
func TestJournalSeededReplayMatchesFromZero(t *testing.T) {
	t.Run("events12", func(t *testing.T) {
		checkSeededMatchesFromZero(t, journalProg, journalOptions(), journalReplayOptions(), 2)
	})
	// A longer events run at a sparser rotation and wider chunks.
	t.Run("events400/rot128", func(t *testing.T) {
		o := journalOptions()
		o.Seed, o.HostRand, o.ChunkBytes, o.RotateEvents = 5, 5, 64, 128
		checkSeededMatchesFromZero(t, func() *bytecode.Program { return workloads.Events(400) }, o, journalReplayOptions(), 2)
	})
	for _, name := range workloads.Names() {
		for _, rot := range []int{3, 16} {
			t.Run(fmt.Sprintf("%s/rot%d", name, rot), func(t *testing.T) {
				o := optsFor(name, 1)
				o.HeapBytes, o.RotateEvents, o.KeepEvents = 1<<16, rot, 256
				ro := replaycheck.Options{HeapBytes: 1 << 16, KeepEvents: 256}
				j := checkSeededMatchesFromZero(t, workloads.Registry[name], o, ro, 0)
				// A workload that logs well past the threshold must have
				// rotated (fig1ab and fig1cd log almost nothing but their
				// end markers at seed 1).
				if logged := j.Events() + switches(j); logged > 2*rot && len(j.Manifest.Checkpoints) == 0 {
					t.Fatalf("rotation never fired over %d logged entries", logged)
				}
			})
		}
	}
}

// checkSeededMatchesFromZero records prog into a journal, replays it from
// zero, and then replays it seeded from each of its checkpoints (at least
// minCkpts of them), comparing every seeded run with the from-zero one.
// It returns the journal.
func checkSeededMatchesFromZero(t *testing.T, prog func() *bytecode.Program, rec, rep replaycheck.Options, minCkpts int) *trace.Journal {
	t.Helper()
	fs := memfs.New()
	r, err := replaycheck.RecordJournal(prog(), fs, rec)
	if err != nil || r.RunErr != nil {
		t.Fatalf("record journal: %v / %v", err, r.RunErr)
	}
	zero, j, err := replaycheck.ReplayJournal(prog(), fs, rep)
	if err != nil || zero.RunErr != nil {
		t.Fatalf("from-zero replay: %v / %v", err, zero.RunErr)
	}
	if len(j.Manifest.Checkpoints) < minCkpts {
		t.Fatalf("want at least %d checkpoints, got %d", minCkpts, len(j.Manifest.Checkpoints))
	}
	t.Logf("%d checkpoints over %d instructions", len(j.Manifest.Checkpoints), zero.Events)
	for _, ci := range j.Manifest.Checkpoints {
		seeded, info, err := replaycheck.ReplayJournalFrom(prog(), fs, ci.VMEvents, rep)
		if err != nil {
			t.Fatalf("ckpt %d: seeded replay: %v", ci.Index, err)
		}
		if seeded.RunErr != nil {
			t.Fatalf("ckpt %d: seeded run: %v", ci.Index, seeded.RunErr)
		}
		if info.Checkpoint == nil || info.VMEvents != ci.VMEvents || info.Segment != ci.Index {
			t.Fatalf("ckpt %d: wrong seed chosen: %+v", ci.Index, info)
		}
		// Final state must match the from-zero replay exactly. (CompareRuns
		// also compares digests, which legitimately differ — the seeded run
		// never sees pre-checkpoint events — so compare piecewise.)
		if seeded.Events != zero.Events {
			t.Fatalf("ckpt %d: events %d, from-zero %d", ci.Index, seeded.Events, zero.Events)
		}
		if string(seeded.Output) != string(zero.Output) {
			t.Fatalf("ckpt %d: outputs differ", ci.Index)
		}
		zh, zu := replaycheck.HeapDigest(zero.VM)
		sh, su := replaycheck.HeapDigest(seeded.VM)
		if zh != sh || zu != su {
			t.Fatalf("ckpt %d: heap images differ", ci.Index)
		}
		zt, st := zero.VM.Scheduler().Threads(), seeded.VM.Scheduler().Threads()
		if len(zt) != len(st) {
			t.Fatalf("ckpt %d: thread counts differ", ci.Index)
		}
		for i := range zt {
			if zt[i].YieldCount != st[i].YieldCount {
				t.Fatalf("ckpt %d: thread %d clocks differ: %d vs %d", ci.Index, i, zt[i].YieldCount, st[i].YieldCount)
			}
		}
		// The seeded run's recent events must be event-for-event the tail
		// of the from-zero run's.
		zr, sr := zero.Digest.Recent(), seeded.Digest.Recent()
		if len(sr) > len(zr) {
			t.Fatalf("ckpt %d: seeded saw more events than from-zero", ci.Index)
		}
		tail := zr[len(zr)-len(sr):]
		for i := range sr {
			if sr[i] != tail[i] {
				t.Fatalf("ckpt %d: seeded event %d = %q, from-zero tail %q", ci.Index, i, sr[i], tail[i])
			}
		}
	}
	return j
}

// switches counts the journal's logged switch entries.
func switches(j *trace.Journal) int {
	n := 0
	for _, sg := range j.Manifest.Segments {
		n += sg.Switches
	}
	return n
}

// TestJournalSeedTargetSelection: targets between checkpoints pick the
// nearest one at or before; targets before the first seed from zero.
func TestJournalSeedTargetSelection(t *testing.T) {
	fs := memfs.New()
	prog := journalProg()
	rec, err := replaycheck.RecordJournal(prog, fs, journalOptions())
	if err != nil || rec.RunErr != nil {
		t.Fatalf("record journal: %v / %v", err, rec.RunErr)
	}
	res, info, err := replaycheck.ReplayJournalFrom(prog, fs, 1, journalReplayOptions())
	if err != nil || res.RunErr != nil {
		t.Fatalf("target 1: %v / %v", err, res.RunErr)
	}
	if info.Checkpoint != nil || info.Segment != 0 || info.VMEvents != 0 {
		t.Fatalf("target 1 should seed from zero: %+v", info)
	}
	res, info, err = replaycheck.ReplayJournalFrom(prog, fs, 1<<62, journalReplayOptions())
	if err != nil || res.RunErr != nil {
		t.Fatalf("target max: %v / %v", err, res.RunErr)
	}
	if info.Checkpoint == nil {
		t.Fatal("huge target should seed from the last checkpoint")
	}
}

// TestJournalCorruptCheckpointFallsBack: a corrupted checkpoint file is
// skipped in favor of an earlier intact one; replay still matches.
func TestJournalCorruptCheckpointFallsBack(t *testing.T) {
	fs := memfs.New()
	prog := journalProg()
	rec, err := replaycheck.RecordJournal(prog, fs, journalOptions())
	if err != nil || rec.RunErr != nil {
		t.Fatalf("record journal: %v / %v", err, rec.RunErr)
	}
	zero, j, err := replaycheck.ReplayJournal(prog, fs, journalReplayOptions())
	if err != nil || zero.RunErr != nil {
		t.Fatalf("from-zero replay: %v / %v", err, zero.RunErr)
	}
	last := j.Manifest.Checkpoints[len(j.Manifest.Checkpoints)-1]
	if !fs.CorruptBit(last.Name, 40) {
		t.Fatalf("could not corrupt %s", last.Name)
	}
	res, info, err := replaycheck.ReplayJournalFrom(prog, fs, last.VMEvents, journalReplayOptions())
	if err != nil || res.RunErr != nil {
		t.Fatalf("seeded replay with corrupt checkpoint: %v / %v", err, res.RunErr)
	}
	if info.Checkpoint != nil && info.Checkpoint.Index == last.Index {
		t.Fatal("corrupt checkpoint was not skipped")
	}
	if res.Events != zero.Events || string(res.Output) != string(zero.Output) {
		t.Fatal("fallback replay diverged from from-zero replay")
	}
}

// rewriteFullImage replaces checkpoint file name with one in the older
// checkpoint format, whose heap section carried both semispaces whole: a
// file that passes its CRC but that the VM refuses.
func rewriteFullImage(t *testing.T, fs *memfs.MemFS, name string, progHash uint64) {
	t.Helper()
	data, _ := fs.ReadFile(name)
	ck, err := trace.DecodeCheckpoint(data, progHash)
	if err != nil {
		t.Fatal(err)
	}
	const vmHeader = 12 // checkpoint magic + program hash
	hs, rest, err := heap.DecodeSnapshot(ck.State[vmHeader:])
	if err != nil {
		t.Fatal(err)
	}
	full := make([]byte, 2*hs.Semi)
	copy(full[hs.Base:], hs.Image)
	state := append([]byte(nil), ck.State[:vmHeader]...)
	for _, v := range []int{hs.Semi, hs.Base, hs.Alloc, len(full)} {
		state = binary.AppendUvarint(state, uint64(v))
	}
	ck.State = append(append(state, full...), rest...)
	f, err := fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(trace.EncodeCheckpoint(progHash, ck)); err != nil {
		t.Fatal(err)
	}
	f.Close()
}

// TestJournalRefusedCheckpointFallsBack: a checkpoint that loads but that
// the VM refuses (here one in the older full-image format) is skipped
// like a corrupt one, by seeded replay and by the debugger.
func TestJournalRefusedCheckpointFallsBack(t *testing.T) {
	fs := memfs.New()
	prog := journalProg()
	rec, err := replaycheck.RecordJournal(prog, fs, journalOptions())
	if err != nil || rec.RunErr != nil {
		t.Fatalf("record journal: %v / %v", err, rec.RunErr)
	}
	zero, j, err := replaycheck.ReplayJournal(prog, fs, journalReplayOptions())
	if err != nil || zero.RunErr != nil {
		t.Fatalf("from-zero replay: %v / %v", err, zero.RunErr)
	}
	last := j.Manifest.Checkpoints[len(j.Manifest.Checkpoints)-1]
	rewriteFullImage(t, fs, last.Name, vm.ProgramHash(prog))
	if _, err := trace.DecodeCheckpoint(mustRead(t, fs, last.Name), vm.ProgramHash(prog)); err != nil {
		t.Fatalf("rewritten checkpoint no longer loads: %v", err)
	}

	res, info, err := replaycheck.ReplayJournalFrom(prog, fs, last.VMEvents, journalReplayOptions())
	if err != nil || res.RunErr != nil {
		t.Fatalf("seeded replay with refused checkpoint: %v / %v", err, res.RunErr)
	}
	if info.Checkpoint == nil || info.Checkpoint.Index >= last.Index {
		t.Fatalf("seeded from %+v, want a checkpoint before %d", info, last.Index)
	}
	if res.Events != zero.Events || string(res.Output) != string(zero.Output) {
		t.Fatal("fallback replay diverged from from-zero replay")
	}

	d, err := debugger.OpenJournal(mustImage(t, prog), fs, last.VMEvents, nil)
	if err != nil {
		t.Fatalf("debugger at a refused checkpoint: %v", err)
	}
	if got := d.VM.Events(); got != last.VMEvents {
		t.Fatalf("debugger opened at event %d, want %d", got, last.VMEvents)
	}
}

func mustRead(t *testing.T, fs *memfs.MemFS, name string) []byte {
	t.Helper()
	b, ok := fs.ReadFile(name)
	if !ok {
		t.Fatalf("%s missing", name)
	}
	return b
}

// TestVerifyPoolJobTimeout: a job that overruns its budget is counted as
// a failure with an ErrStalled reason; the pool itself never hangs.
func TestVerifyPoolJobTimeout(t *testing.T) {
	slow := func() *bytecode.Program {
		time.Sleep(200 * time.Millisecond)
		return workloads.Fig1AB()
	}
	jobs := []replaycheck.VerifyJob{
		{Name: "ok", Prog: workloads.Fig1AB, Options: replaycheck.Options{Seed: 1}},
		{Name: "hung", Prog: slow, Options: replaycheck.Options{Seed: 2}, Timeout: 20 * time.Millisecond},
	}
	start := time.Now()
	sum := replaycheck.VerifyPool(jobs, 2)
	if wall := time.Since(start); wall > 2*time.Second {
		t.Fatalf("pool took %v; the timeout did not bound the job", wall)
	}
	if sum.Passed != 1 || sum.Failed != 1 {
		t.Fatalf("passed %d failed %d, want 1/1\n%s", sum.Passed, sum.Failed, sum.Report())
	}
	fails := sum.Failures()
	if len(fails) != 1 || fails[0].Name != "hung" {
		t.Fatalf("failures: %+v", fails)
	}
	if !errors.Is(fails[0].Err, core.ErrStalled) {
		t.Fatalf("timeout surfaced as %v, want core.ErrStalled", fails[0].Err)
	}
	var st *core.StalledError
	if !errors.As(fails[0].Err, &st) || st.Deadline != 20*time.Millisecond {
		t.Fatalf("stall detail: %v", fails[0].Err)
	}
}

// TestReplayWatchdogArmedButQuiet: a healthy replay under a tight
// progress deadline completes without tripping the watchdog.
func TestReplayWatchdogArmedButQuiet(t *testing.T) {
	fs := memfs.New()
	prog := journalProg()
	rec, err := replaycheck.RecordJournal(prog, fs, journalOptions())
	if err != nil || rec.RunErr != nil {
		t.Fatalf("record journal: %v / %v", err, rec.RunErr)
	}
	ro := journalReplayOptions()
	ro.ProgressDeadline = 5 * time.Second
	rep, _, err := replaycheck.ReplayJournal(prog, fs, ro)
	if err != nil || rep.RunErr != nil {
		t.Fatalf("replay with watchdog: %v / %v", err, rep.RunErr)
	}
	if err := replaycheck.CompareRuns(rec, rep); err != nil {
		t.Fatal(err)
	}
}

// mustImage loads prog for debugger.OpenJournal.
func mustImage(t testing.TB, prog *bytecode.Program) *vm.Image {
	t.Helper()
	img, err := vm.NewImage(prog)
	if err != nil {
		t.Fatal(err)
	}
	return img
}
