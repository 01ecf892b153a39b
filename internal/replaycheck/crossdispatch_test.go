// Cross-dispatch differential harness: for every corpus workload and
// seed, Run (fused slices, deferred flushes, journal polls at slice
// boundaries) and a Step loop (unfused stream, eager flushes, a poll at
// every instruction) must be indistinguishable — bit-identical trace
// bytes, same output, same event and context-switch counts, same final
// state — and a trace recorded by either must replay to the same digest
// under both. Both drivers run the same handlers; fusion, deferred
// flushes and decode-time caches must not leak into anything
// record/replay observes.
package replaycheck_test

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"dejavu/internal/bytecode"
	"dejavu/internal/faults/memfs"
	"dejavu/internal/flightrec"
	"dejavu/internal/replaycheck"
	"dejavu/internal/vm"
	"dejavu/internal/workloads"
)

// withStepLoop runs f with every replaycheck run inside it driven by a
// Step loop instead of Run; the deferred restore also runs when f fails
// the test.
func withStepLoop(f func()) {
	defer replaycheck.UseStepLoop()()
	f()
}

// crossCorpus is the workload registry plus a small hashy: a recursion
// whose taken backedges are yield points at which the engine's switch
// effects grow the thread stack, abandoning a segment whose frame pc Run
// defers. It stays out of workloads.Registry, which the interpreter
// goldens iterate.
var crossCorpus = func() map[string]func() *bytecode.Program {
	c := map[string]func() *bytecode.Program{
		"hashy": func() *bytecode.Program { return workloads.Hashy(20, 25) },
	}
	for name, prog := range workloads.Registry {
		c[name] = prog
	}
	return c
}()

func crossNames() []string {
	out := make([]string, 0, len(crossCorpus))
	for n := range crossCorpus {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// sameSnapshot fails unless both VMs encode to the same checkpoint bytes:
// heap image (garbage included), scheduler and engine position.
func sameSnapshot(t *testing.T, what string, fast, stepped *vm.VM) {
	t.Helper()
	fs, err := fast.AppendCheckpoint(nil)
	if err != nil {
		t.Fatalf("%s: run checkpoint: %v", what, err)
	}
	ls, err := stepped.AppendCheckpoint(nil)
	if err != nil {
		t.Fatalf("%s: step checkpoint: %v", what, err)
	}
	if !bytes.Equal(fs, ls) {
		t.Fatalf("%s: encoded final snapshots diverged", what)
	}
}

func TestCrossDispatchDifferential(t *testing.T) {
	for _, name := range crossNames() {
		for _, seed := range []int64{1, 4, 9} {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				prog := crossCorpus[name]

				frec, err := replaycheck.Record(prog(), optsFor(name, seed))
				if err != nil || frec.RunErr != nil {
					t.Fatalf("run record: %v %v", err, frec.RunErr)
				}
				var lrec *replaycheck.Result
				withStepLoop(func() {
					lrec, err = replaycheck.Record(prog(), optsFor(name, seed))
					if err != nil || lrec.RunErr != nil {
						t.Fatalf("step record: %v %v", err, lrec.RunErr)
					}
				})

				if !bytes.Equal(frec.Trace, lrec.Trace) {
					t.Fatalf("trace bytes diverged: run %d bytes, step %d bytes",
						len(frec.Trace), len(lrec.Trace))
				}
				if !bytes.Equal(frec.Output, lrec.Output) {
					t.Fatalf("output diverged:\nrun:  %q\nstep: %q", frec.Output, lrec.Output)
				}
				if frec.Events != lrec.Events {
					t.Fatalf("event count diverged: run %d, step %d", frec.Events, lrec.Events)
				}
				if fs, ls := frec.Digest.Switches(), lrec.Digest.Switches(); fs != ls {
					t.Fatalf("context switches diverged: run %d, step %d", fs, ls)
				}
				if fd, ld := frec.Digest.Sum(), lrec.Digest.Sum(); fd != ld {
					t.Fatalf("record digest diverged: run %#x, step %#x", fd, ld)
				}
				ffs, lfs := frec.VM.FinalState(), lrec.VM.FinalState()
				if len(ffs) != len(lfs) {
					t.Fatalf("final state shape diverged: %d vs %d entries", len(ffs), len(lfs))
				}
				for i := range ffs {
					if ffs[i] != lfs[i] {
						t.Fatalf("final state diverged: %q vs %q", ffs[i], lfs[i])
					}
				}
				sameSnapshot(t, "record", frec.VM, lrec.VM)

				// The shared trace must replay to the same digest under
				// both drivers.
				frep, err := replaycheck.Replay(prog(), frec.Trace, optsFor(name, seed))
				if err != nil || frep.RunErr != nil {
					t.Fatalf("run replay: %v %v", err, frep.RunErr)
				}
				var lrep *replaycheck.Result
				withStepLoop(func() {
					lrep, err = replaycheck.Replay(prog(), frec.Trace, optsFor(name, seed))
					if err != nil || lrep.RunErr != nil {
						t.Fatalf("step replay: %v %v", err, lrep.RunErr)
					}
				})
				if fd, ld := frep.Digest.Sum(), lrep.Digest.Sum(); fd != ld {
					t.Fatalf("replay digest diverged: run %#x, step %#x", fd, ld)
				}
				sameSnapshot(t, "replay", frep.VM, lrep.VM)
				if fd, rd := frec.Digest.Sum(), frep.Digest.Sum(); fd != rd {
					t.Fatalf("replay digest %#x differs from record digest %#x", rd, fd)
				}
			})
		}
	}
}

// journalFiles returns every file on fs by name.
func journalFiles(t *testing.T, fs *memfs.MemFS) map[string][]byte {
	t.Helper()
	names, err := fs.List()
	if err != nil {
		t.Fatalf("list journal: %v", err)
	}
	out := make(map[string][]byte, len(names))
	for _, n := range names {
		b, ok := fs.ReadFile(n)
		if !ok {
			t.Fatalf("read %s: missing", n)
		}
		out[n] = b
	}
	return out
}

// sameFiles fails unless both drivers wrote the same file list with
// byte-identical contents (MANIFEST, seg-*.dvs, ckpt-*.dvck).
func sameFiles(t *testing.T, fast, stepped map[string][]byte) {
	t.Helper()
	if len(fast) != len(stepped) {
		t.Fatalf("file lists diverged: run %d files %v, step %d files %v",
			len(fast), sortedNames(fast), len(stepped), sortedNames(stepped))
	}
	for _, n := range sortedNames(stepped) {
		fb, ok := fast[n]
		if !ok {
			t.Fatalf("Run did not write %s (wrote %v)", n, sortedNames(fast))
		}
		if !bytes.Equal(fb, stepped[n]) {
			t.Fatalf("%s diverged: run %d bytes, step %d bytes", n, len(fb), len(stepped[n]))
		}
	}
}

func sortedNames(files map[string][]byte) []string {
	out := make([]string, 0, len(files))
	for n := range files {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// journalPolicies are the rotation settings of the journal differential:
// tiny event thresholds put segment boundaries next to nearly every
// logged event (sleepy and server at 1 and 3 rotate right after the
// dispatcher's timer-check clock reads, in front of fused pairs), and
// one byte threshold exercises the other policy.
var journalPolicies = []struct {
	name   string
	events int
	bytes  int64
}{
	{"ev1", 1, 0}, {"ev3", 3, 0}, {"ev8", 8, 0}, {"ev50", 50, 0}, {"b96", 0, 96},
}

// journalDiffOptions keeps checkpoints small: every rotation snapshots
// the whole heap.
func journalDiffOptions(name string, seed int64, events int, bytes int64) replaycheck.Options {
	o := optsFor(name, seed)
	o.HeapBytes = 1 << 16
	o.RotateEvents, o.RotateBytes = events, bytes
	return o
}

// TestJournalCrossDispatchDifferential: Run polls journal rotation only
// where the answer can change, yet every segment boundary, checkpoint
// position and checkpoint byte must match a Step loop, which polls
// before every instruction.
func TestJournalCrossDispatchDifferential(t *testing.T) {
	for _, name := range crossNames() {
		for _, seed := range []int64{1, 4, 9} {
			for _, pol := range journalPolicies {
				t.Run(fmt.Sprintf("%s/seed%d/%s", name, seed, pol.name), func(t *testing.T) {
					prog := crossCorpus[name]
					o := journalDiffOptions(name, seed, pol.events, pol.bytes)
					ffs, lfs := memfs.New(), memfs.New()
					frec, err := replaycheck.RecordJournal(prog(), ffs, o)
					if err != nil || frec.RunErr != nil {
						t.Fatalf("run record: %v %v", err, frec.RunErr)
					}
					var lrec *replaycheck.Result
					withStepLoop(func() {
						lrec, err = replaycheck.RecordJournal(prog(), lfs, o)
						if err != nil || lrec.RunErr != nil {
							t.Fatalf("step record: %v %v", err, lrec.RunErr)
						}
					})
					if frec.Events != lrec.Events {
						t.Fatalf("event count diverged: run %d, step %d", frec.Events, lrec.Events)
					}
					if fd, ld := frec.Digest.Sum(), lrec.Digest.Sum(); fd != ld {
						t.Fatalf("record digest diverged: run %#x, step %#x", fd, ld)
					}
					sameFiles(t, journalFiles(t, ffs), journalFiles(t, lfs))
				})
			}
		}
	}
}

// TestFlightCrossDispatchDifferential: a flight ring rotates through the
// same polls as a journal; its flushed window must be byte-identical
// between Run and a Step loop.
func TestFlightCrossDispatchDifferential(t *testing.T) {
	for _, name := range workloads.Names() {
		for _, seed := range []int64{1, 4, 9} {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				prog := workloads.Registry[name]
				flush := func(o replaycheck.Options) map[string][]byte {
					ring, err := flightrec.NewRing(vm.ProgramHash(prog()), flightrec.Options{
						WindowEvents: 12, SegmentEvents: 3,
					})
					if err != nil {
						t.Fatalf("NewRing: %v", err)
					}
					rec, err := replaycheck.RecordSink(prog(), ring, o)
					if err != nil || rec.RunErr != nil {
						t.Fatalf("record: %v %v", err, rec.RunErr)
					}
					fs := memfs.New()
					if _, err := ring.FlushTo(fs, "differential"); err != nil {
						t.Fatalf("FlushTo: %v", err)
					}
					return journalFiles(t, fs)
				}
				o := journalDiffOptions(name, seed, 0, 0)
				fast := flush(o)
				var stepped map[string][]byte
				withStepLoop(func() { stepped = flush(o) })
				sameFiles(t, fast, stepped)
			})
		}
	}
}
