package debugger

// Journal travel oracle: a journal-backed debugger starts every travel,
// backward or forward, from the nearest of its VM's position, its
// in-memory checkpoints and the journal's durable checkpoints, which it
// restores into the same VM. After every travel it must stand exactly where
// a from-zero replay of the journal, advanced by a Step loop, stands.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"dejavu/internal/bytecode"
	"dejavu/internal/core"
	"dejavu/internal/faults/memfs"
	"dejavu/internal/replaycheck"
	"dejavu/internal/trace"
	"dejavu/internal/vm"
	"dejavu/internal/workloads"
)

// recordJournal records prog into a journal rotated every rotate logged
// events, on an in-memory filesystem.
func recordJournal(t *testing.T, prog *bytecode.Program, name string, seed int64, rotate int) *memfs.MemFS {
	t.Helper()
	o := replaycheck.Options{Seed: seed, HostRand: seed, RotateEvents: rotate}
	if name == "sumlines" {
		o.Input = "5\n15\n22\n\n"
	}
	fs := memfs.New()
	rec, err := replaycheck.RecordJournal(prog, fs, o)
	if err != nil || rec.RunErr != nil {
		t.Fatalf("record journal %s seed %d: %v %v", name, seed, err, rec.RunErr)
	}
	return fs
}

// zeroReplay is the oracle: a replay of the whole journal from event zero,
// built the way a debugger builds its VM and advanced by a Step loop. A
// backward target replays from zero again.
type zeroReplay struct {
	prog *bytecode.Program
	j    *trace.Journal
	m    *vm.VM
}

func (z *zeroReplay) travel(t *testing.T, event uint64) {
	t.Helper()
	if z.m == nil || event < z.m.Events() {
		z.m, _ = journalVM(t, z.prog, z.j, nil)
	}
	for z.m.Events() < event {
		done, err := z.m.Step()
		if err != nil {
			t.Fatalf("oracle step at event %d: %v", z.m.Events(), err)
		}
		if done {
			return
		}
	}
}

// journalVM builds a replay VM over the whole journal, as OpenJournal
// does, with obs (if set) watching every step. It returns the trace Reader
// the VM replays too.
func journalVM(t *testing.T, prog *bytecode.Program, j *trace.Journal, obs vm.Observer) (*vm.VM, *trace.Reader) {
	t.Helper()
	src, err := j.Source()
	if err != nil {
		t.Fatal(err)
	}
	r, err := src.Load()
	if err != nil {
		t.Fatal(err)
	}
	ecfg := core.DefaultConfig(core.ModeReplay)
	ecfg.ProgHash = vm.ProgramHash(prog)
	ecfg.TraceSrc = r
	ecfg.PartialTrace = !j.Complete()
	eng, err := core.NewEngine(ecfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := vm.New(prog, vm.Config{Engine: eng, Observer: obs})
	if err != nil {
		t.Fatal(err)
	}
	return m, r
}

// replayState is m's encoded snapshot without the one field a durable
// restore rightly leaves apart from a from-zero replay: the engine's
// cumulative Stats. Every thread word stays in, and so does the engine's
// position: reader position, nyp, pending, switchBit, liveClock.
func replayState(t *testing.T, m *vm.VM) []byte {
	t.Helper()
	enc := encoded(t, m)
	es, err := m.Engine().Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var eng []byte
	es.EncodeTo(&eng)
	// The engine section ends the encoding: three reader offsets and nyp
	// as uvarints, then the pending, switchBit and liveClock bytes, then
	// the Stats.
	n := 0
	for range 4 {
		_, k := binary.Uvarint(eng[n:])
		n += k
	}
	return enc[:len(enc)-len(eng)+n+3]
}

// sameReplay fails unless the debugger's VM stands where the from-zero
// replay stands.
func sameReplay(t *testing.T, what string, got, want *vm.VM) {
	t.Helper()
	if g, w := got.Events(), want.Events(); g != w {
		t.Fatalf("%s: landed at event %d, from-zero replay at %d", what, g, w)
	}
	if !bytes.Equal(got.Output(), want.Output()) {
		t.Fatalf("%s: output diverged at event %d:\n%q\n%q", what, got.Events(), got.Output(), want.Output())
	}
	if !bytes.Equal(replayState(t, got), replayState(t, want)) {
		t.Fatalf("%s: replay state diverged at event %d", what, got.Events())
	}
}

// journalRotations are the oracle's two rotation thresholds, in logged
// trace events: segment boundaries next to nearly every logged event, and
// a sparser cadence that leaves in-memory checkpoints between them.
var journalRotations = []int{3, 24}

// TestJournalTravelOracle: for corpus x seeds x rotation thresholds x
// random target sequences, travel that restores durable checkpoints into
// the debugger's own VM lands exactly where a from-zero replay does.
func TestJournalTravelOracle(t *testing.T) {
	corpus := travelCorpus()
	var durable uint64
	for _, name := range sortedKeys(corpus) {
		for _, seed := range []int64{1, 4, 9} {
			for _, rotate := range journalRotations {
				t.Run(fmt.Sprintf("%s/seed%d/rot%d", name, seed, rotate), func(t *testing.T) {
					prog := corpus[name]()
					fs := recordJournal(t, prog, name, seed, rotate)
					d, err := OpenJournal(mustImage(t, prog), fs, 0, nil)
					if err != nil {
						t.Fatal(err)
					}
					vm0 := d.VM
					z := &zeroReplay{prog: prog, j: d.Journal()}
					z.travel(t, 1<<62)
					total := z.m.Events()
					d.CheckpointEvery = max(total/8, 1)
					rng := rand.New(rand.NewSource(seed*7919 + int64(rotate) + int64(len(name))))
					for i, tgt := range travelTargets(rng, total, 30) {
						if err := d.TravelTo(tgt); err != nil {
							t.Fatalf("travel %d to %d: %v", i, tgt, err)
						}
						z.travel(t, tgt)
						sameReplay(t, fmt.Sprintf("travel %d to %d", i, tgt), d.VM, z.m)
					}
					if d.VM != vm0 {
						t.Fatal("a travel replaced the debugger's VM")
					}
					durable += d.Reseeds()
				})
			}
		}
	}
	if durable == 0 {
		t.Fatal("no travel started from a durable checkpoint; the oracle is vacuous")
	}
}

// TestSeamCheckpointMatchesReplay: a from-zero replay standing at a seam
// encodes byte for byte the durable checkpoint the recorder wrote there,
// up to the flag that says whether an engine section follows (a record
// checkpoint carries none; a replay VM's position comes after it).
func TestSeamCheckpointMatchesReplay(t *testing.T) {
	corpus := travelCorpus()
	var seams int
	for _, name := range sortedKeys(corpus) {
		for _, seed := range []int64{1, 4, 9} {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				prog := corpus[name]()
				j, err := trace.OpenJournal(recordJournal(t, prog, name, seed, journalRotations[0]))
				if err != nil {
					t.Fatal(err)
				}
				z := &zeroReplay{prog: prog, j: j}
				for _, info := range j.Manifest.Checkpoints {
					ck, err := j.LoadCheckpoint(info)
					if err != nil {
						t.Fatal(err)
					}
					z.travel(t, ck.VMEvents)
					got, want := encoded(t, z.m), ck.State[:len(ck.State)-1]
					if !bytes.HasPrefix(got, want) {
						i := 0
						for i < len(want) && i < len(got) && got[i] == want[i] {
							i++
						}
						t.Fatalf("checkpoint %d at event %d: replay state differs at byte %d of %d", info.Index, ck.VMEvents, i, len(want))
					}
					seams++
				}
			})
		}
	}
	if seams == 0 {
		t.Fatal("no journal rotated; the comparison is vacuous")
	}
}

// stepCounter counts the steps a VM executes.
type stepCounter struct{ steps uint64 }

func (c *stepCounter) OnStep(int, int, int, bytecode.Opcode) { c.steps++ }
func (c *stepCounter) OnOutput([]byte)                       {}
func (c *stepCounter) OnSwitch(int)                          {}

// observedJournal opens a debugger over the whole journal on fs whose VM
// reports every step it executes to c.
func observedJournal(t *testing.T, prog *bytecode.Program, fs trace.FS, c *stepCounter) *Debugger {
	t.Helper()
	j, err := trace.OpenJournal(fs)
	if err != nil {
		t.Fatal(err)
	}
	m, r := journalVM(t, prog, j, c)
	d := New(m)
	d.journal, d.reader = j, r
	d.maybeCheckpoint()
	return d
}

// TestForwardTravelStartsFromNearestCheckpoint: a forward travel restores
// the nearest checkpoint before its target instead of replaying from the
// VM's position, so it replays at most CheckpointEvery events, whether the
// nearest start is an in-memory checkpoint or a durable one.
func TestForwardTravelStartsFromNearestCheckpoint(t *testing.T) {
	prog := workloads.Bank(4, 8, 500)
	fs := recordJournal(t, prog, "bank", 4, 3)
	c := &stepCounter{}
	d := observedJournal(t, prog, fs, c)
	cks := d.journal.Manifest.Checkpoints
	if len(cks) < 4 {
		t.Fatalf("want several durable checkpoints, got %d", len(cks))
	}
	// Durable: the anchor at zero is the only in-memory checkpoint, and
	// the nearest durable one sits at most CheckpointEvery before target.
	gap := cks[0].VMEvents
	for i := 1; i < len(cks); i++ {
		gap = max(gap, cks[i].VMEvents-cks[i-1].VMEvents)
	}
	d.CheckpointEvery = gap
	target := (cks[len(cks)-2].VMEvents + cks[len(cks)-1].VMEvents) / 2
	if target <= 2*gap {
		t.Fatalf("target %d is within two checkpoint gaps of zero; test is vacuous", target)
	}
	c.steps = 0
	if err := d.TravelTo(target); err != nil {
		t.Fatal(err)
	}
	if c.steps > d.CheckpointEvery {
		t.Fatalf("forward travel to %d from a durable start replayed %d events, want at most %d", target, c.steps, d.CheckpointEvery)
	}
	z := &zeroReplay{prog: prog, j: d.journal}
	z.travel(t, target)
	sameReplay(t, "durable forward travel", d.VM, z.m)

	// In memory: Continue leaves checkpoints every CheckpointEvery events;
	// back near zero, a travel deep into that region starts from one.
	d.CheckpointEvery = max(gap/3, 1)
	if _, err := d.Continue(); err != nil {
		t.Fatal(err)
	}
	if err := d.TravelTo(1); err != nil {
		t.Fatal(err)
	}
	target = cks[len(cks)-2].VMEvents + d.CheckpointEvery/2
	c.steps = 0
	if err := d.TravelTo(target); err != nil {
		t.Fatal(err)
	}
	if c.steps > d.CheckpointEvery {
		t.Fatalf("forward travel to %d inside the checkpointed region replayed %d events, want at most %d", target, c.steps, d.CheckpointEvery)
	}
	z.travel(t, target)
	sameReplay(t, "in-memory forward travel", d.VM, z.m)
}

// rewriteCheckpoint replaces checkpoint file info on fs with what spoil
// makes of it, framed and checksummed as a valid checkpoint file.
func rewriteCheckpoint(t *testing.T, fs *memfs.MemFS, info trace.CheckpointInfo, progHash uint64, spoil func(*trace.Checkpoint)) {
	t.Helper()
	data, _ := fs.ReadFile(info.Name)
	ck, err := trace.DecodeCheckpoint(data, progHash)
	if err != nil {
		t.Fatal(err)
	}
	ck.State = append([]byte(nil), ck.State...)
	spoil(&ck)
	writeFile(t, fs, info.Name, trace.EncodeCheckpoint(progHash, ck))
}

func writeFile(t *testing.T, fs *memfs.MemFS, name string, data []byte) {
	t.Helper()
	f, err := fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	f.Close()
}

// spoiler makes a durable checkpoint unusable.
type spoiler struct {
	name  string
	spoil func(*testing.T, *memfs.MemFS, trace.CheckpointInfo)
}

// durableSpoilers are the ways a durable checkpoint of a program with hash
// hash can be unusable: its file torn, a state the VM refuses (another
// program, or the older DVCK format), or a BoundaryNYP that does not fit
// its segment. Travel and seeded replay must both skip each one.
func durableSpoilers(hash uint64) []spoiler {
	return []spoiler{
		{"torn", func(t *testing.T, fs *memfs.MemFS, info trace.CheckpointInfo) {
			data, _ := fs.ReadFile(info.Name)
			writeFile(t, fs, info.Name, data[:len(data)/2])
		}},
		{"refused", func(t *testing.T, fs *memfs.MemFS, info trace.CheckpointInfo) {
			rewriteCheckpoint(t, fs, info, hash, func(ck *trace.Checkpoint) {
				ck.State[4] ^= 0xff // the VM state names another program
			})
		}},
		{"misfit", func(t *testing.T, fs *memfs.MemFS, info trace.CheckpointInfo) {
			rewriteCheckpoint(t, fs, info, hash, func(ck *trace.Checkpoint) {
				ck.BoundaryNYP = 1 << 40 // past any switch interval
			})
		}},
		{"old magic", func(t *testing.T, fs *memfs.MemFS, info trace.CheckpointInfo) {
			rewriteCheckpoint(t, fs, info, hash, func(ck *trace.Checkpoint) {
				// The format before threads lost their record-only NYP;
				// decoded as today's, every field after it would shift.
				copy(ck.State, "DVCK")
			})
		}},
	}
}

// TestDurableFallbackLeavesVMUntouched: a durable checkpoint spoiled in any
// of the durableSpoilers ways is skipped with the VM untouched, and travel
// falls back to the next-best start and lands where the from-zero replay
// does.
func TestDurableFallbackLeavesVMUntouched(t *testing.T) {
	prog := workloads.Bank(4, 8, 500)
	for _, c := range durableSpoilers(vm.ProgramHash(prog)) {
		t.Run(c.name, func(t *testing.T) {
			fs := recordJournal(t, prog, "bank", 4, 3)
			d, err := OpenJournal(mustImage(t, prog), fs, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			cks := d.journal.Manifest.Checkpoints
			if len(cks) < 3 {
				t.Fatalf("want several durable checkpoints, got %d", len(cks))
			}
			i := len(cks) / 2
			prev, bad, next := cks[i-1], cks[i], cks[i+1]
			if err := d.TravelTo(prev.VMEvents); err != nil {
				t.Fatal(err)
			}
			c.spoil(t, fs, bad)

			// The spoiled checkpoint is the only durable start after the
			// VM's position and at or before target.
			target := (bad.VMEvents + next.VMEvents) / 2
			before, reseeds := replayState(t, d.VM), d.Reseeds()
			if ok, err := d.restoreDurable(target, d.VM.Events(), true); ok || err != nil {
				t.Fatalf("restored spoiled checkpoint %d: %v", bad.Index, err)
			}
			if !bytes.Equal(replayState(t, d.VM), before) || d.Reseeds() != reseeds {
				t.Fatalf("skipping spoiled checkpoint %d changed the VM", bad.Index)
			}

			if err := d.TravelTo(target); err != nil {
				t.Fatal(err)
			}
			z := &zeroReplay{prog: prog, j: d.journal}
			z.travel(t, target)
			sameReplay(t, fmt.Sprintf("travel to %d past spoiled checkpoint %d", target, bad.Index), d.VM, z.m)
			// Backward from past next, the next-best durable start is prev.
			if err := d.TravelTo(next.VMEvents + 1); err != nil {
				t.Fatal(err)
			}
			if err := d.TravelTo(target); err != nil {
				t.Fatal(err)
			}
			sameReplay(t, fmt.Sprintf("rewind to %d past spoiled checkpoint %d", target, bad.Index), d.VM, z.m)
		})
	}
}

// TestSeededReplaySkipsSpoiledCheckpoint: seeded journal replay
// (replaycheck.ReplayJournalFrom) skips a checkpoint spoiled in any of the
// durableSpoilers ways just as travel does: it starts from the next-best
// checkpoint and ends where the from-zero replay ends.
func TestSeededReplaySkipsSpoiledCheckpoint(t *testing.T) {
	prog := workloads.Bank(4, 8, 500)
	for _, c := range durableSpoilers(vm.ProgramHash(prog)) {
		t.Run(c.name, func(t *testing.T) {
			fs := recordJournal(t, prog, "bank", 4, 3)
			zero, j, err := replaycheck.ReplayJournal(prog, fs, replaycheck.Options{})
			if err != nil || zero.RunErr != nil {
				t.Fatalf("from-zero replay: %v / %v", err, zero.RunErr)
			}
			cks := j.Manifest.Checkpoints
			if len(cks) < 3 {
				t.Fatalf("want several durable checkpoints, got %d", len(cks))
			}
			i := len(cks) / 2
			prev, bad := cks[i-1], cks[i]
			c.spoil(t, fs, bad)

			res, info, err := replaycheck.ReplayJournalFrom(prog, fs, bad.VMEvents, replaycheck.Options{})
			if err != nil {
				t.Fatalf("seeded replay past spoiled checkpoint %d: %v", bad.Index, err)
			}
			if res.RunErr != nil {
				t.Fatalf("seeded run past spoiled checkpoint %d: %v", bad.Index, res.RunErr)
			}
			if info.Checkpoint == nil || info.Segment != prev.Index || info.VMEvents != prev.VMEvents {
				t.Fatalf("seeded from %+v, want checkpoint %d at %d events", info, prev.Index, prev.VMEvents)
			}
			if res.Events != zero.Events || !bytes.Equal(res.Output, zero.Output) {
				t.Fatalf("seeded replay ended at %d events, from-zero at %d, or their outputs differ", res.Events, zero.Events)
			}
			zh, zu := replaycheck.HeapDigest(zero.VM)
			sh, su := replaycheck.HeapDigest(res.VM)
			if zh != sh || zu != su {
				t.Fatal("seeded replay's final heap differs from the from-zero replay's")
			}
		})
	}
}
