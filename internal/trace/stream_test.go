package trace

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"dejavu/internal/faults"
)

// driveSink logs a pseudo-random but seed-determined event sequence into
// any Sink, so the same script can feed a Writer and a StreamWriter.
// Native ids run 0,1,2,… in event order so a drain can predict them (the
// decoder checks the id the replayer claims, and a mismatch is
// unrecoverable by design).
func driveSink(s Sink, seed int64, events int) {
	rng := rand.New(rand.NewSource(seed))
	nativeSeq := 0
	for i := 0; i < events; i++ {
		switch rng.Intn(5) {
		case 0:
			s.Switch(uint64(rng.Intn(500)))
		case 1:
			s.Clock(rng.Int63n(1 << 40))
		case 2:
			vals := make([]int64, rng.Intn(4))
			for j := range vals {
				vals[j] = rng.Int63() - rng.Int63()
			}
			s.Native(nativeSeq, vals)
			nativeSeq++
		case 3:
			b := make([]byte, rng.Intn(64))
			rng.Read(b)
			s.Input(b)
		case 4:
			params := make([]int64, rng.Intn(3))
			for j := range params {
				params[j] = rng.Int63()
			}
			s.Callback(rng.Intn(8), params)
		}
	}
	s.End()
}

// drainSource consumes every event from a Source, returning a printable
// transcript for equivalence checks.
func drainSource(t *testing.T, r Source) []string {
	t.Helper()
	var out []string
	nativeSeq := 0
	for {
		if v, ok := r.NextSwitch(); ok {
			out = append(out, fmt.Sprintf("switch %d", v))
			continue
		}
		break
	}
	for {
		k, err := r.Peek()
		if err != nil {
			t.Fatalf("peek after %d events: %v", r.EventIndex(), err)
		}
		switch k {
		case EvClock:
			v, err := r.Clock()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, fmt.Sprintf("clock %d", v))
		case EvNative:
			vals, err := r.Native(nativeSeq)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, fmt.Sprintf("native %d %v", nativeSeq, vals))
			nativeSeq++
		case EvInput:
			b, err := r.Input()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, fmt.Sprintf("input %x", b))
		case EvCallback:
			cb, params, err := r.Callback()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, fmt.Sprintf("callback %d %v", cb, params))
		case EvEnd:
			return out
		default:
			t.Fatalf("unexpected kind %v", k)
		}
	}
}

// loadStreams reads a container of either kind and returns its switch and
// data streams.
func loadStreams(t *testing.T, raw []byte, hash uint64) (sw, data []byte) {
	t.Helper()
	r, err := NewReader(raw, hash)
	if err != nil {
		t.Fatal(err)
	}
	return r.sw, r.data
}

// TestDecodeStreamByteIdentical: for many seeds and chunk sizes, streaming
// the same events and decoding the stream yields exactly the two streams
// inside Writer.Bytes().
func TestDecodeStreamByteIdentical(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		for _, chunk := range []int{1, 7, 64, 1 << 15} {
			t.Run(fmt.Sprintf("seed%d/chunk%d", seed, chunk), func(t *testing.T) {
				const hash = 0xfeedface
				w := NewWriter(hash)
				driveSink(w, seed, 200)
				wantSw, wantData := loadStreams(t, w.Bytes(), hash)

				var buf bytes.Buffer
				sw, err := NewStreamWriter(&buf, hash, StreamOptions{ChunkBytes: chunk})
				if err != nil {
					t.Fatal(err)
				}
				driveSink(sw, seed, 200)
				if err := sw.Close(); err != nil {
					t.Fatal(err)
				}
				if !IsStream(buf.Bytes()) {
					t.Fatal("missing stream magic")
				}
				gotSw, gotData := loadStreams(t, buf.Bytes(), hash)
				if !bytes.Equal(wantSw, gotSw) || !bytes.Equal(wantData, gotData) {
					t.Fatalf("decoded stream differs from flat container (%d+%d vs %d+%d bytes)",
						len(wantSw), len(wantData), len(gotSw), len(gotData))
				}
				// Close is idempotent.
				if err := sw.Close(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestStreamReaderMatchesReader: the StreamReader yields the same event
// transcript as the flat Reader, even with 1-byte chunks (every event split
// across chunk boundaries) delivered through a one-byte-at-a-time reader.
func TestStreamReaderMatchesReader(t *testing.T) {
	const hash = 0x1234
	for seed := int64(0); seed < 4; seed++ {
		w := NewWriter(hash)
		driveSink(w, seed, 150)
		flat, err := NewReader(w.Bytes(), hash)
		if err != nil {
			t.Fatal(err)
		}
		want := drainSource(t, flat)

		var buf bytes.Buffer
		sw, _ := NewStreamWriter(&buf, hash, StreamOptions{ChunkBytes: 3})
		driveSink(sw, seed, 150)
		if err := sw.Close(); err != nil {
			t.Fatal(err)
		}
		sr, err := NewStreamReader(iotest1(buf.Bytes()), hash)
		if err != nil {
			t.Fatal(err)
		}
		got := drainSource(t, sr)
		if len(want) != len(got) {
			t.Fatalf("seed %d: transcript lengths differ: %d vs %d", seed, len(want), len(got))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("seed %d: transcript[%d]: %q vs %q", seed, i, want[i], got[i])
			}
		}
		if !sr.AtEnd() {
			t.Fatal("stream reader not AtEnd after drain")
		}
		if sr.SwitchesRemaining() {
			t.Fatal("switches remaining after drain")
		}
	}
}

// iotest1 returns a reader that yields one byte per Read call, exercising
// every partial-read path in the stream reader.
func iotest1(b []byte) io.Reader { return &oneByteReader{b: b} }

type oneByteReader struct{ b []byte }

func (r *oneByteReader) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, io.EOF
	}
	p[0] = r.b[0]
	r.b = r.b[1:]
	return 1, nil
}

// TestStreamInterleavedConsumption mirrors the engine's access pattern:
// switches and data events consumed alternately while chunks arrive.
func TestStreamInterleavedConsumption(t *testing.T) {
	const hash = 99
	var buf bytes.Buffer
	sw, _ := NewStreamWriter(&buf, hash, StreamOptions{ChunkBytes: 16})
	for i := 0; i < 50; i++ {
		sw.Switch(uint64(i))
		sw.Clock(int64(i) * 1000)
	}
	sw.End()
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	sr, err := NewStreamReader(bytes.NewReader(buf.Bytes()), hash)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		nyp, ok := sr.NextSwitch()
		if !ok || nyp != uint64(i) {
			t.Fatalf("switch %d: got %d ok=%v", i, nyp, ok)
		}
		v, err := sr.Clock()
		if err != nil || v != int64(i)*1000 {
			t.Fatalf("clock %d: got %d err=%v", i, v, err)
		}
	}
	if !sr.AtEnd() {
		t.Fatal("not at end")
	}
	if sr.EventIndex() != 50 {
		t.Fatalf("EventIndex = %d, want 50", sr.EventIndex())
	}
}

// TestStreamHeaderValidation: magic and program-hash mismatches fail fast.
func TestStreamHeaderValidation(t *testing.T) {
	var buf bytes.Buffer
	sw, _ := NewStreamWriter(&buf, 7, StreamOptions{})
	sw.End()
	sw.Close()

	if _, err := NewStreamReader(bytes.NewReader(buf.Bytes()), 8); err == nil {
		t.Fatal("hash mismatch accepted")
	}
	if _, err := NewStreamReader(bytes.NewReader([]byte("DVT2xxxxxxxx")), 7); err == nil {
		t.Fatal("flat magic accepted as stream")
	}
	if _, err := NewStreamReader(bytes.NewReader(nil), 7); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, err := NewReader([]byte("DVS1nope"), 7); err == nil {
		t.Fatal("NewReader accepted a torn stream header")
	}
}

// TestStreamTruncation: cutting the container anywhere must produce an
// error (from the stream framing or the inner decoder), never a panic or
// silent success.
func TestStreamTruncation(t *testing.T) {
	const hash = 42
	var buf bytes.Buffer
	sw, _ := NewStreamWriter(&buf, hash, StreamOptions{ChunkBytes: 8})
	driveSink(sw, 1, 40)
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	for cut := streamHeaderLen; cut < len(whole); cut++ {
		if _, err := NewReader(whole[:cut], hash); err == nil {
			t.Fatalf("NewReader accepted truncation at %d/%d", cut, len(whole))
		}
	}
	// The incremental reader also surfaces truncation instead of stalling.
	sr, err := NewStreamReader(bytes.NewReader(whole[:len(whole)-3]), hash)
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, ok := sr.NextSwitch(); !ok {
			break
		}
	}
	nativeSeq := 0
	for {
		k, err := sr.Peek()
		if err != nil {
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("want unexpected-EOF class error, got %v", err)
			}
			return // expected: truncated mid-container
		}
		if k == EvEnd {
			t.Fatal("truncated stream reached EvEnd cleanly")
		}
		switch k {
		case EvClock:
			_, err = sr.Clock()
		case EvInput:
			_, err = sr.Input()
		case EvNative:
			_, err = sr.Native(nativeSeq)
			nativeSeq++
		case EvCallback:
			_, _, err = sr.Callback()
		}
		if err != nil {
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("want unexpected-EOF class error, got %v", err)
			}
			return
		}
	}
}

// TestStreamCorruptChunk: unknown tags (including the pre-checksum
// framing's 0x01-0x03) and absurd lengths are rejected without large
// allocations, and salvage stops at the first such chunk.
func TestStreamCorruptChunk(t *testing.T) {
	hdr := make([]byte, streamHeaderLen)
	copy(hdr, streamMagic)

	var stream bytes.Buffer
	w, err := NewStreamWriter(&stream, 0, StreamOptions{ChunkBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	driveSink(w, 9, 40)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw := stream.Bytes()
	first, err := readChunk(bufio.NewReader(bytes.NewReader(raw[streamHeaderLen:])))
	if err != nil {
		t.Fatal(err)
	}
	second := streamHeaderLen + int(first.frameBytes)
	if raw[second] != chunkSwitch && raw[second] != chunkData {
		t.Fatalf("second chunk tag %#x", raw[second])
	}
	legacy := bytes.Clone(raw)
	legacy[second] ^= 0x10 // e.g. 0x11 -> 0x01: one flipped bit names the old unchecksummed framing

	for _, tc := range []struct {
		name   string
		in     []byte
		chunks int // whole chunks RecoverStream keeps
	}{
		{"unknown tag", append(bytes.Clone(hdr), 0x7f), 0},
		{"legacy end marker", append(bytes.Clone(hdr), 0x03), 0},
		{"legacy tag flip", legacy, 1},
		// Huge claimed length: 2^60 encoded as uvarint after a data tag.
		{"huge length", append(bytes.Clone(hdr), chunkData,
			0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x10), 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewReader(tc.in, 0); err == nil {
				t.Fatal("NewReader accepted a corrupt chunk")
			}
			sr, err := NewStreamReader(bytes.NewReader(tc.in), 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sr.Load(); err == nil {
				t.Fatal("StreamReader accepted a corrupt chunk")
			}
			rep, err := RecoverStream(bytes.NewReader(tc.in), io.Discard)
			if err != nil {
				t.Fatalf("RecoverStream refused an intact header: %v", err)
			}
			if rep.Complete || rep.Chunks != tc.chunks {
				t.Fatalf("salvage kept %d chunks (complete %v), want %d: %s", rep.Chunks, rep.Complete, tc.chunks, rep.Reason)
			}
		})
	}
}

// TestStreamWriterStats: TotalBytes tracks container bytes through flushes
// and Close, and per-kind counts match the flat writer.
func TestStreamWriterStats(t *testing.T) {
	const hash = 5
	w := NewWriter(hash)
	driveSink(w, 2, 100)
	flatStats := w.Stats()

	var buf bytes.Buffer
	sw, _ := NewStreamWriter(&buf, hash, StreamOptions{ChunkBytes: 32})
	driveSink(sw, 2, 100)
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	st := sw.Stats()
	if st.TotalBytes != buf.Len() {
		t.Fatalf("TotalBytes = %d, container is %d", st.TotalBytes, buf.Len())
	}
	if !reflect.DeepEqual(st.Events, flatStats.Events) {
		t.Fatalf("event counts differ: %v vs %v", st.Events, flatStats.Events)
	}
	if !reflect.DeepEqual(st.BytesByKind, flatStats.BytesByKind) {
		t.Fatalf("per-kind byte counts differ: %v vs %v", st.BytesByKind, flatStats.BytesByKind)
	}
}

// syncCounter is an in-memory sink exposing the Sync surface so tests can
// count durability points.
type syncCounter struct {
	bytes.Buffer
	syncs int
}

func (s *syncCounter) Sync() error { s.syncs++; return nil }

func TestStreamSyncPolicies(t *testing.T) {
	const events = 40
	run := func(p SyncPolicy, chunk int) *syncCounter {
		t.Helper()
		dst := &syncCounter{}
		w, err := NewStreamWriter(dst, 1, StreamOptions{ChunkBytes: chunk, Sync: p})
		if err != nil {
			t.Fatal(err)
		}
		driveSink(w, 11, events)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return dst
	}
	if got := run(SyncNone, 1).syncs; got != 0 {
		t.Fatalf("SyncNone synced %d times", got)
	}
	if got := run(SyncChunk, 1).syncs; got < 2 {
		t.Fatalf("SyncChunk with 1-byte chunks synced only %d times", got)
	}
	if got := run(SyncEvent, 1<<15).syncs; got < events {
		t.Fatalf("SyncEvent synced %d times for %d events", got, events)
	}
	// All three produce equivalent streams: durability must not change what
	// is recorded.
	wantSw, wantData := loadStreams(t, run(SyncNone, 64).Bytes(), 1)
	for _, p := range []SyncPolicy{SyncChunk, SyncEvent} {
		gotSw, gotData := loadStreams(t, run(p, 64).Bytes(), 1)
		if !bytes.Equal(gotSw, wantSw) || !bytes.Equal(gotData, wantData) {
			t.Fatalf("%v recorded a different trace", p)
		}
	}
}

func TestStreamWriterStickyWriteError(t *testing.T) {
	fw := &faults.Writer{W: &bytes.Buffer{}, Limit: 40}
	w, err := NewStreamWriter(fw, 1, StreamOptions{ChunkBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		w.Clock(int64(i)) // keeps flushing chunks; must not panic after the fault
	}
	first := w.Err()
	if first == nil || !errors.Is(first, faults.ErrInjected) {
		t.Fatalf("injected write fault not surfaced: %v", first)
	}
	w.End()
	if cerr := w.Close(); cerr != first {
		t.Fatalf("Close returned %v, want the first sticky error %v", cerr, first)
	}
	if w.Err() != first {
		t.Fatalf("Err changed after Close: %v", w.Err())
	}
}

func TestStreamWriterDetectsShortWrite(t *testing.T) {
	fw := &faults.Writer{W: &bytes.Buffer{}, Limit: 30, Mode: faults.ShortWrite}
	w, err := NewStreamWriter(fw, 1, StreamOptions{ChunkBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100 && w.Err() == nil; i++ {
		w.Clock(int64(i))
	}
	if !errors.Is(w.Err(), io.ErrShortWrite) {
		t.Fatalf("short write not detected: %v", w.Err())
	}
}

func TestStreamWriterSyncFailureSurfaces(t *testing.T) {
	dst := &failingSyncer{}
	w, err := NewStreamWriter(dst, 1, StreamOptions{ChunkBytes: 1, Sync: SyncChunk})
	if err != nil {
		t.Fatal(err)
	}
	w.Clock(1)
	w.End()
	if cerr := w.Close(); cerr == nil || !errors.Is(cerr, errSyncFailed) {
		t.Fatalf("sync failure not reported by Close: %v", cerr)
	}
}

var errSyncFailed = errors.New("sync failed")

type failingSyncer struct{ bytes.Buffer }

func (f *failingSyncer) Sync() error { return errSyncFailed }

func TestStreamWriterDoubleClose(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewStreamWriter(&buf, 1, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	driveSink(w, 3, 20)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	n := buf.Len()
	if err := w.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if buf.Len() != n {
		t.Fatalf("second Close wrote %d more bytes", buf.Len()-n)
	}
	if _, err := NewReader(buf.Bytes(), 1); err != nil {
		t.Fatalf("double-closed stream corrupt: %v", err)
	}
}
