// Cross-dispatch differential harness: for every corpus workload and
// seed, the token-threaded fast path and the legacy switch loop must be
// indistinguishable — bit-identical trace bytes, same output, same
// event and context-switch counts, same final state — and a trace
// recorded by either must replay to the same digest under both. The
// fast path fuses instruction pairs and caches decode-time facts, but
// none of that may leak into anything record/replay observes.
package replaycheck_test

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"dejavu/internal/faults/memfs"
	"dejavu/internal/flightrec"
	"dejavu/internal/replaycheck"
	"dejavu/internal/vm"
	"dejavu/internal/workloads"
)

// legacyOpts forces the reference dispatcher on top of o, preserving any
// existing TweakVM.
func legacyOpts(o replaycheck.Options) replaycheck.Options {
	prev := o.TweakVM
	o.TweakVM = func(c *vm.Config) {
		if prev != nil {
			prev(c)
		}
		c.Dispatch = vm.DispatchLegacy
	}
	return o
}

func TestCrossDispatchDifferential(t *testing.T) {
	for _, name := range workloads.Names() {
		for _, seed := range []int64{1, 4, 9} {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				prog := workloads.Registry[name]

				frec, err := replaycheck.Record(prog(), optsFor(name, seed))
				if err != nil || frec.RunErr != nil {
					t.Fatalf("fast record: %v %v", err, frec.RunErr)
				}
				lrec, err := replaycheck.Record(prog(), legacyOpts(optsFor(name, seed)))
				if err != nil || lrec.RunErr != nil {
					t.Fatalf("legacy record: %v %v", err, lrec.RunErr)
				}

				if !bytes.Equal(frec.Trace, lrec.Trace) {
					t.Fatalf("trace bytes diverged: fast %d bytes, legacy %d bytes",
						len(frec.Trace), len(lrec.Trace))
				}
				if !bytes.Equal(frec.Output, lrec.Output) {
					t.Fatalf("output diverged:\nfast:   %q\nlegacy: %q", frec.Output, lrec.Output)
				}
				if frec.Events != lrec.Events {
					t.Fatalf("event count diverged: fast %d, legacy %d", frec.Events, lrec.Events)
				}
				if fs, ls := frec.Digest.Switches(), lrec.Digest.Switches(); fs != ls {
					t.Fatalf("context switches diverged: fast %d, legacy %d", fs, ls)
				}
				if fd, ld := frec.Digest.Sum(), lrec.Digest.Sum(); fd != ld {
					t.Fatalf("record digest diverged: fast %#x, legacy %#x", fd, ld)
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

				// The shared trace must replay to the same digest under
				// both dispatchers.
				frep, err := replaycheck.Replay(prog(), frec.Trace, optsFor(name, seed))
				if err != nil || frep.RunErr != nil {
					t.Fatalf("fast replay: %v %v", err, frep.RunErr)
				}
				lrep, err := replaycheck.Replay(prog(), frec.Trace, legacyOpts(optsFor(name, seed)))
				if err != nil || lrep.RunErr != nil {
					t.Fatalf("legacy replay: %v %v", err, lrep.RunErr)
				}
				if fd, ld := frep.Digest.Sum(), lrep.Digest.Sum(); fd != ld {
					t.Fatalf("replay digest diverged: fast %#x, legacy %#x", fd, ld)
				}
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

// sameFiles fails unless both dispatchers wrote the same file list with
// byte-identical contents (MANIFEST, seg-*.dvs, ckpt-*.dvck).
func sameFiles(t *testing.T, fast, legacy map[string][]byte) {
	t.Helper()
	if len(fast) != len(legacy) {
		t.Fatalf("file lists diverged: fast %d files %v, legacy %d files %v",
			len(fast), sortedNames(fast), len(legacy), sortedNames(legacy))
	}
	for _, n := range sortedNames(legacy) {
		fb, ok := fast[n]
		if !ok {
			t.Fatalf("fast dispatcher did not write %s (wrote %v)", n, sortedNames(fast))
		}
		if !bytes.Equal(fb, legacy[n]) {
			t.Fatalf("%s diverged: fast %d bytes, legacy %d bytes", n, len(fb), len(legacy[n]))
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

// TestJournalCrossDispatchDifferential: Run's fast path polls journal
// rotation only where the answer can change, yet every segment boundary,
// checkpoint position and checkpoint byte must match the legacy loop,
// which polls before every instruction.
func TestJournalCrossDispatchDifferential(t *testing.T) {
	for _, name := range workloads.Names() {
		for _, seed := range []int64{1, 4, 9} {
			for _, pol := range journalPolicies {
				t.Run(fmt.Sprintf("%s/seed%d/%s", name, seed, pol.name), func(t *testing.T) {
					prog := workloads.Registry[name]
					o := journalDiffOptions(name, seed, pol.events, pol.bytes)
					ffs, lfs := memfs.New(), memfs.New()
					frec, err := replaycheck.RecordJournal(prog(), ffs, o)
					if err != nil || frec.RunErr != nil {
						t.Fatalf("fast record: %v %v", err, frec.RunErr)
					}
					lrec, err := replaycheck.RecordJournal(prog(), lfs, legacyOpts(o))
					if err != nil || lrec.RunErr != nil {
						t.Fatalf("legacy record: %v %v", err, lrec.RunErr)
					}
					if frec.Events != lrec.Events {
						t.Fatalf("event count diverged: fast %d, legacy %d", frec.Events, lrec.Events)
					}
					if fd, ld := frec.Digest.Sum(), lrec.Digest.Sum(); fd != ld {
						t.Fatalf("record digest diverged: fast %#x, legacy %#x", fd, ld)
					}
					sameFiles(t, journalFiles(t, ffs), journalFiles(t, lfs))
				})
			}
		}
	}
}

// TestFlightCrossDispatchDifferential: a flight ring rotates through the
// same polls as a journal; its flushed window must be byte-identical
// between the two dispatchers.
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
				sameFiles(t, flush(o), flush(legacyOpts(o)))
			})
		}
	}
}
