// Tests for torn-tail recovery. External test package so real recordings
// can seed the salvage scenarios (replaycheck imports trace; the reverse
// would cycle).
package trace_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"

	"dejavu/internal/bytecode"
	"dejavu/internal/core"
	"dejavu/internal/faults/memfs"
	"dejavu/internal/replaycheck"
	"dejavu/internal/trace"
	"dejavu/internal/workloads"
)

// recordStreamed records prog with small chunks (so cuts land at
// interesting offsets) and returns the streamed container plus the
// reference run.
func recordStreamed(t testing.TB, prog *bytecode.Program, o replaycheck.Options) ([]byte, *replaycheck.Result) {
	t.Helper()
	var buf bytes.Buffer
	o.ChunkBytes = 24
	o.KeepEvents = 1 << 20 // retain the full transcript for prefix checks
	rec, err := replaycheck.RecordTo(prog, &buf, o)
	if err != nil || rec.RunErr != nil {
		t.Fatalf("record: %v / %v", err, rec.RunErr)
	}
	return buf.Bytes(), rec
}

// salvage runs in through RecoverStream, returning the sealed salvage.
func salvage(in []byte) ([]byte, *trace.RecoverReport, error) {
	var out bytes.Buffer
	rep, err := trace.RecoverStream(bytes.NewReader(in), &out)
	return out.Bytes(), rep, err
}

// replaySalvaged replays a RecoverStream salvage, marking it partial when
// the salvage lacks its end event.
func replaySalvaged(prog *bytecode.Program, salvaged []byte, rep *trace.RecoverReport) (*replaycheck.Result, error) {
	return replaycheck.Replay(prog, salvaged, replaycheck.Options{
		KeepEvents:  1 << 20,
		TweakEngine: func(c *core.Config) { c.PartialTrace = !rep.EndEvent },
	})
}

func isStringPrefix(p, full []string) (int, bool) {
	if len(p) > len(full) {
		return len(full), false
	}
	for i := range p {
		if p[i] != full[i] {
			return i, false
		}
	}
	return len(p), true
}

func TestRecoverCompleteTrace(t *testing.T) {
	prog := workloads.Bank(2, 4, 3)
	stream, rec := recordStreamed(t, prog, replaycheck.Options{Seed: 9, HostRand: 9})
	salvaged, rep, err := salvage(stream)
	if err != nil {
		t.Fatalf("RecoverStream: %v", err)
	}
	if !rep.Complete || !rep.EndEvent {
		t.Fatalf("complete trace not recognized: %+v", rep)
	}
	if rep.EstimatedEvents != rep.Events {
		t.Fatalf("complete trace must not extrapolate: est %d, events %d", rep.EstimatedEvents, rep.Events)
	}
	repRes, err := replaySalvaged(prog, salvaged, rep)
	if err != nil || repRes.RunErr != nil {
		t.Fatalf("replay of complete salvage: %v / %v", err, repRes.RunErr)
	}
	if err := replaycheck.CompareRuns(rec, repRes); err != nil {
		t.Fatalf("complete salvage diverged from recording: %v", err)
	}
}

// TestRecoverEveryPrefix is the crash-anywhere property: for EVERY byte
// length a crash could leave behind, RecoverStream must salvage something that
// replays as an exact prefix of the original execution — same transcript,
// same output — never a panic and never divergence past the salvage point.
func TestRecoverEveryPrefix(t *testing.T) {
	progs := []struct {
		name string
		mk   func() *bytecode.Program
	}{
		{"fig1cd", workloads.Fig1CD}, // clock reads: data events between switches
		{"bank", func() *bytecode.Program { return workloads.Bank(2, 4, 3) }},
	}
	for _, tc := range progs {
		t.Run(tc.name, func(t *testing.T) {
			stream, rec := recordStreamed(t, tc.mk(), replaycheck.Options{Seed: 4, HostRand: 4})
			ref := rec.Digest.Recent()
			for cut := 0; cut <= len(stream); cut++ {
				salvaged, rep, err := salvage(stream[:cut])
				if err != nil {
					if cut >= 12 {
						t.Fatalf("cut %d: header intact but RecoverStream refused: %v", cut, err)
					}
					continue // torn header: nothing salvageable, by contract
				}
				res, err := replaySalvaged(tc.mk(), salvaged, rep)
				if err != nil {
					t.Fatalf("cut %d: replay setup: %v", cut, err)
				}
				if res.RunErr != nil && !errors.Is(res.RunErr, io.ErrUnexpectedEOF) {
					t.Fatalf("cut %d: replay failed with a non-truncation error: %v", cut, res.RunErr)
				}
				if i, ok := isStringPrefix(res.Digest.Recent(), ref); !ok {
					t.Fatalf("cut %d: replay diverged from the recording at event %d:\nreplayed %q\nrecorded %q",
						cut, i, res.Digest.Recent()[i], ref[i])
				}
				if !bytes.HasPrefix(rec.Output, res.Output) {
					t.Fatalf("cut %d: replay output %q is not a prefix of recorded output %q",
						cut, res.Output, rec.Output)
				}
				if cut == len(stream) {
					if res.RunErr != nil || len(res.Digest.Recent()) != len(ref) {
						t.Fatalf("full-length salvage did not replay completely: err=%v events=%d/%d",
							res.RunErr, len(res.Digest.Recent()), len(ref))
					}
				}
			}
		})
	}
}

// TestRecoverBitFlip corrupts one bit at every byte offset past the header:
// RecoverStream must stop at or before the damaged chunk (checksums catch what
// structural parsing alone cannot) and the salvage must still replay as a
// clean prefix.
func TestRecoverBitFlip(t *testing.T) {
	prog := workloads.Fig1CD()
	stream, rec := recordStreamed(t, prog, replaycheck.Options{Seed: 6, HostRand: 6})
	ref := rec.Digest.Recent()
	for off := 12; off < len(stream); off++ {
		mut := append([]byte(nil), stream...)
		mut[off] ^= 0x10
		salvaged, rep, err := salvage(mut)
		if err != nil {
			t.Fatalf("offset %d: RecoverStream refused a bad-body container: %v", off, err)
		}
		// CRC32 detects every single-bit error, so no flip can leave the
		// container looking complete.
		if rep.Complete {
			t.Fatalf("offset %d: corrupt container reported complete", off)
		}
		res, err := replaySalvaged(prog, salvaged, rep)
		if err != nil {
			t.Fatalf("offset %d: replay setup: %v", off, err)
		}
		if res.RunErr != nil && !errors.Is(res.RunErr, io.ErrUnexpectedEOF) {
			t.Fatalf("offset %d: replay failed with a non-truncation error: %v", off, res.RunErr)
		}
		if i, ok := isStringPrefix(res.Digest.Recent(), ref); !ok {
			t.Fatalf("offset %d: salvage diverged from the recording at event %d", off, i)
		}
	}
}

func TestRecoverRejectsTornHeader(t *testing.T) {
	for _, in := range [][]byte{nil, []byte("DV"), []byte("DVT2xxxxxxxx"), []byte("DVS1\x01\x02")} {
		out, _, err := salvage(in)
		if err == nil {
			t.Fatalf("RecoverStream accepted unsalvageable input %q", in)
		}
		if len(out) != 0 {
			t.Fatalf("RecoverStream wrote %d bytes for unsalvageable input %q", len(out), in)
		}
	}
}

// FuzzRecover: whatever the input, RecoverStream must either refuse it or
// write a sealed container that NewStreamReader opens and loads, holding
// exactly the switches and events the report counts; salvaging that
// output again must find it complete and reproduce it byte for byte.
func FuzzRecover(f *testing.F) {
	var buf bytes.Buffer
	rec, err := replaycheck.RecordTo(workloads.Fig1CD(), &buf,
		replaycheck.Options{Seed: 2, HostRand: 2, ChunkBytes: 24})
	if err != nil || rec.RunErr != nil {
		f.Fatalf("seed record: %v / %v", err, rec.RunErr)
	}
	stream := buf.Bytes()
	f.Add(append([]byte(nil), stream...))
	f.Add(append([]byte(nil), stream[:len(stream)/2]...))
	mut := append([]byte(nil), stream...)
	mut[len(mut)/3] ^= 0x40
	f.Add(mut)
	f.Add([]byte("DVS1\x00\x00\x00\x00\x00\x00\x00\x00\x13"))
	f.Fuzz(func(t *testing.T, data []byte) {
		out, rep, err := salvage(data)
		if err != nil {
			if len(out) != 0 {
				t.Fatalf("refused input but wrote %d bytes", len(out))
			}
			return
		}
		if rep.SalvagedBytes > rep.TotalBytes {
			t.Fatalf("salvaged %d > total %d", rep.SalvagedBytes, rep.TotalBytes)
		}
		sr, err := trace.NewStreamReader(bytes.NewReader(out), rep.ProgHash)
		if err != nil {
			t.Fatalf("salvage rejected by NewStreamReader: %v", err)
		}
		r, err := sr.Load()
		if err != nil {
			t.Fatalf("salvage does not load: %v", err)
		}
		if sw, ev := trace.CountEvents(r); sw != rep.Switches || ev != rep.Events {
			t.Fatalf("salvage holds %d switches / %d events, report says %d / %d",
				sw, ev, rep.Switches, rep.Events)
		}
		again, rep2, err := salvage(out)
		if err != nil || !rep2.Complete {
			t.Fatalf("re-salvage: %v complete=%v", err, rep2 != nil && rep2.Complete)
		}
		if !bytes.Equal(again, out) {
			t.Fatalf("re-salvage changed the bytes (%d vs %d)", len(again), len(out))
		}
	})
}

// TestJournalSourceBitFlipSweep flips one bit in every byte of a small
// journal's segment files. In a sealed segment (trusted by the manifest,
// so never salvaged) every flip must surface as an error from draining
// Journal.Source(0) — the check dvserve ingest relies on. In the unsealed
// tail a flip only shortens the salvage: the journal must still replay an
// exact prefix of the recording.
func TestJournalSourceBitFlipSweep(t *testing.T) {
	prog := workloads.Events(12)
	o := replaycheck.Options{
		Seed: 11, HostRand: 11, KeepEvents: 1 << 20,
		ChunkBytes: 24, RotateEvents: 8, PreemptMin: 2, PreemptMax: 9,
		HeapBytes: 1 << 17,
	}
	fs := memfs.New()
	rec, err := replaycheck.RecordJournal(prog, fs, o)
	if err != nil || rec.RunErr != nil {
		t.Fatalf("record journal: %v / %v", err, rec.RunErr)
	}
	j, err := trace.OpenJournal(fs)
	if err != nil || len(j.Manifest.Segments) < 2 {
		t.Fatalf("open journal: %v (need >= 2 sealed segments)", err)
	}
	drain := func() error {
		j, err := trace.OpenJournal(fs)
		if err != nil {
			return err
		}
		src, err := j.Source(0)
		if err != nil {
			return err
		}
		r, err := src.Load()
		if err == nil && r == nil {
			return fmt.Errorf("Load returned neither a reader nor an error")
		}
		return err
	}
	if err := drain(); err != nil {
		t.Fatalf("clean journal does not drain: %v", err)
	}

	t.Run("sealed", func(t *testing.T) {
		name := j.Manifest.Segments[0].Name
		seg, _ := fs.ReadFile(name)
		for i := range seg {
			fs.CorruptBit(name, i)
			err := drain()
			fs.CorruptBit(name, i) // flip it back
			if err == nil {
				t.Fatalf("bit %d of byte %d flipped in sealed %s, yet Source(0) drained cleanly", i%8, i, name)
			}
		}
	})

	t.Run("unsealed tail", func(t *testing.T) {
		// Demote segment 1 to the unsealed tail, as if the recorder crashed
		// before sealing it (later segment files are then never read).
		m := *j.Manifest
		m.Segments = m.Segments[:1]
		m.Complete = false
		m.Checkpoints = nil
		for _, c := range j.Manifest.Checkpoints {
			if c.Index < len(m.Segments) {
				m.Checkpoints = append(m.Checkpoints, c)
			}
		}
		mf, err := fs.Create("MANIFEST")
		if err != nil {
			t.Fatal(err)
		}
		mf.Write(m.Encode())
		mf.Close()
		ref := rec.Digest.Recent()
		name := j.Manifest.Segments[len(m.Segments)].Name
		tail, _ := fs.ReadFile(name)
		for i := range tail {
			fs.CorruptBit(name, i)
			res, _, err := replaycheck.ReplayJournal(prog, fs, replaycheck.Options{KeepEvents: 1 << 20, HeapBytes: o.HeapBytes})
			fs.CorruptBit(name, i)
			if err != nil {
				if i >= 12 {
					t.Fatalf("byte %d: tail header intact but replay refused: %v", i, err)
				}
				continue // torn tail header: the sealed prefix alone is still valid, but OpenJournal may refuse
			}
			if res.RunErr != nil && !errors.Is(res.RunErr, io.ErrUnexpectedEOF) {
				t.Fatalf("byte %d: replay failed outside the truncation contract: %v", i, res.RunErr)
			}
			if k, ok := isStringPrefix(res.Digest.Recent(), ref); !ok {
				t.Fatalf("byte %d: salvaged tail diverged from the recording at event %d", i, k)
			}
		}
	})
}
