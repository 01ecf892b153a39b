// The crash matrix: record a real workload through every injected failure
// mode the faults package models — process death mid-write, short writes,
// flipped bits, dropped connections — then recover and replay the wreckage.
// The acceptance bar for every cell is the same: never a panic, and never
// silent divergence. Replay either completes, or stops at the salvage point
// as a clean prefix of the recorded execution with a truncation-class
// error.
package replaycheck_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"

	"dejavu/internal/bytecode"
	"dejavu/internal/core"
	"dejavu/internal/faults"
	"dejavu/internal/replaycheck"
	"dejavu/internal/trace"
	"dejavu/internal/workloads"
)

// matrixProg polls external events through native callbacks, giving the
// trace the richest event mix (switches, natives, callbacks); the tight
// preemption interval keeps the switch stream busy too.
func matrixProg() *bytecode.Program { return workloads.Events(6) }

func matrixOptions() replaycheck.Options {
	return replaycheck.Options{
		Seed: 21, HostRand: 21, ChunkBytes: 24, KeepEvents: 1 << 20,
		PreemptMin: 2, PreemptMax: 9,
	}
}

// matrixReference records once, cleanly, for the prefix comparisons.
func matrixReference(t *testing.T) (stream []byte, rec *replaycheck.Result) {
	t.Helper()
	var buf bytes.Buffer
	rec, err := replaycheck.RecordTo(matrixProg(), &buf, matrixOptions())
	if err != nil || rec.RunErr != nil {
		t.Fatalf("reference record: %v / %v", err, rec.RunErr)
	}
	return buf.Bytes(), rec
}

// salvageAndReplay runs damaged container bytes through RecoverStream and
// replays the sealed salvage, enforcing the matrix acceptance criteria
// against the reference run.
func salvageAndReplay(t *testing.T, damaged []byte, ref *replaycheck.Result) {
	t.Helper()
	var salvaged bytes.Buffer
	rep, err := trace.RecoverStream(bytes.NewReader(damaged), &salvaged)
	if err != nil {
		if len(damaged) >= 12 {
			t.Fatalf("RecoverStream refused a container with an intact header: %v", err)
		}
		return
	}
	res, err := replaycheck.Replay(matrixProg(), salvaged.Bytes(), replaycheck.Options{
		KeepEvents:  1 << 20,
		TweakEngine: func(c *core.Config) { c.PartialTrace = !rep.EndEvent },
	})
	if err != nil {
		t.Fatalf("replay setup: %v", err)
	}
	if res.RunErr != nil && !errors.Is(res.RunErr, io.ErrUnexpectedEOF) {
		t.Fatalf("replay of salvage failed outside the truncation contract: %v", res.RunErr)
	}
	refEvents := ref.Digest.Recent()
	got := res.Digest.Recent()
	if len(got) > len(refEvents) {
		t.Fatalf("salvage replayed %d events, recording had %d", len(got), len(refEvents))
	}
	for i := range got {
		if got[i] != refEvents[i] {
			t.Fatalf("silent divergence at event %d: replayed %q, recorded %q", i, got[i], refEvents[i])
		}
	}
	if !bytes.HasPrefix(ref.Output, res.Output) {
		t.Fatalf("salvage output %q is not a prefix of recorded output %q", res.Output, ref.Output)
	}
}

// TestCrashMatrixSilentDrop records through the crash model — writes
// reported successful but discarded past a budget, like a torn page-cache
// flush — across a sweep of crash points.
func TestCrashMatrixSilentDrop(t *testing.T) {
	stream, ref := matrixReference(t)
	for limit := int64(0); limit <= int64(len(stream)); limit += 17 {
		var disk bytes.Buffer
		fw := &faults.Writer{W: &disk, Limit: limit, Mode: faults.SilentDrop}
		rec, err := replaycheck.RecordTo(matrixProg(), fw, matrixOptions())
		if err != nil || rec.RunErr != nil {
			t.Fatalf("limit %d: record through crash model: %v / %v", limit, err, rec.RunErr)
		}
		salvageAndReplay(t, disk.Bytes(), ref)
	}
}

// TestCrashMatrixWriteError records onto a sink that starts failing
// mid-trace: the recorder must report the fault at Close (not panic, not
// swallow it) and what reached the sink must still salvage.
func TestCrashMatrixWriteError(t *testing.T) {
	_, ref := matrixReference(t)
	for _, limit := range []int64{0, 13, 64, 120} {
		var disk bytes.Buffer
		fw := &faults.Writer{W: &disk, Limit: limit}
		o := matrixOptions()
		_, err := replaycheck.RecordTo(matrixProg(), fw, o)
		if err == nil {
			t.Fatalf("limit %d: injected write fault never surfaced", limit)
		}
		if !errors.Is(err, faults.ErrInjected) {
			t.Fatalf("limit %d: fault surfaced as unrelated error: %v", limit, err)
		}
		salvageAndReplay(t, disk.Bytes(), ref)
	}
}

// TestCrashMatrixShortWrite records onto a transport that violates the
// io.Writer contract with silent short writes; the recorder must detect
// them itself.
func TestCrashMatrixShortWrite(t *testing.T) {
	_, ref := matrixReference(t)
	var disk bytes.Buffer
	fw := &faults.Writer{W: &disk, Limit: 100, Mode: faults.ShortWrite}
	_, err := replaycheck.RecordTo(matrixProg(), fw, matrixOptions())
	if err == nil || !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("short write undetected: %v", err)
	}
	salvageAndReplay(t, disk.Bytes(), ref)
}

// TestCrashMatrixBitFlip flips one bit at a sweep of offsets in a good
// recording — storage corruption after a clean shutdown.
func TestCrashMatrixBitFlip(t *testing.T) {
	stream, ref := matrixReference(t)
	for off := 12; off < len(stream); off += 3 {
		salvageAndReplay(t, faults.FlipBit(stream, off), ref)
	}
}

// TestCrashMatrixDroppedConnection streams a recording over a connection
// that dies after a byte budget — a collector losing its recorder
// mid-session. Whatever the collector received must salvage and replay as
// a clean prefix.
func TestCrashMatrixDroppedConnection(t *testing.T) {
	stream, ref := matrixReference(t)
	for _, limit := range []int64{0, 40, 133, int64(len(stream)) - 1} {
		a, b := net.Pipe()
		fc := &faults.Conn{Conn: a, ReadLimit: -1, WriteLimit: limit}
		var collected bytes.Buffer
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			io.Copy(&collected, b)
			b.Close()
		}()
		rec, rerr := replaycheck.RecordTo(matrixProg(), fc, matrixOptions())
		fc.Close()
		wg.Wait()
		if rerr == nil {
			t.Fatalf("limit %d: connection drop never surfaced", limit)
		}
		if rec != nil && rec.RunErr != nil {
			t.Fatalf("limit %d: recorded run itself failed: %v", limit, rec.RunErr)
		}
		salvageAndReplay(t, collected.Bytes(), ref)
	}
}

// TestCrashMatrixEveryPolicy runs the silent-drop crash model under each
// durability policy: the policy changes how much survives, never whether
// the survivors replay faithfully.
func TestCrashMatrixEveryPolicy(t *testing.T) {
	_, ref := matrixReference(t)
	for _, p := range []trace.SyncPolicy{trace.SyncNone, trace.SyncChunk, trace.SyncEvent} {
		t.Run(fmt.Sprint(p), func(t *testing.T) {
			var disk bytes.Buffer
			fw := &faults.Writer{W: &disk, Limit: 120, Mode: faults.SilentDrop}
			o := matrixOptions()
			o.Sync = p
			rec, err := replaycheck.RecordTo(matrixProg(), fw, o)
			if err != nil || rec.RunErr != nil {
				t.Fatalf("record: %v / %v", err, rec.RunErr)
			}
			salvageAndReplay(t, disk.Bytes(), ref)
		})
	}
}
