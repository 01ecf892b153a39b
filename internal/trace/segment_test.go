package trace

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
)

// writeJournal drives a SegmentWriter through three segments of synthetic
// events with a rotation after every batch, returning the checkpoint
// states it handed over.
func writeJournal(t *testing.T, fs FS, seal bool) (states [][]byte) {
	t.Helper()
	sw, err := NewSegmentWriter(fs, 0xfeed, SegmentOptions{
		StreamOptions: StreamOptions{ChunkBytes: 32, Sync: SyncEvent},
	})
	if err != nil {
		t.Fatalf("NewSegmentWriter: %v", err)
	}
	emit := func(base int) {
		for i := 0; i < 5; i++ {
			sw.Clock(int64(base + i))
		}
		sw.Switch(uint64(base))
		sw.Input([]byte{byte(base)})
	}
	emit(10)
	states = append(states, []byte("state-one"))
	if err := sw.Rotate(states[0], 100, 2); err != nil {
		t.Fatalf("rotate 1: %v", err)
	}
	emit(20)
	states = append(states, []byte("state-two"))
	if err := sw.Rotate(states[1], 200, 0); err != nil {
		t.Fatalf("rotate 2: %v", err)
	}
	emit(30)
	sw.End()
	if seal {
		if err := sw.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
	}
	return states
}

// drainSource consumes a journal source through the public Source surface
// the engine uses, returning the clock values seen.
func drainJournalSource(t *testing.T, s Source) (clocks []int64, switches []uint64, inputs [][]byte) {
	t.Helper()
	for {
		k, err := s.Peek()
		if err != nil {
			if errors.Is(err, io.ErrUnexpectedEOF) {
				return
			}
			t.Fatalf("peek: %v", err)
		}
		switch k {
		case EvClock:
			v, err := s.Clock()
			if err != nil {
				t.Fatalf("clock: %v", err)
			}
			clocks = append(clocks, v)
		case EvInput:
			b, err := s.Input()
			if err != nil {
				t.Fatalf("input: %v", err)
			}
			inputs = append(inputs, b)
			// each input batch is preceded by one switch in writeJournal
			if v, ok := s.NextSwitch(); ok {
				switches = append(switches, v)
			}
		case EvEnd:
			return
		default:
			t.Fatalf("unexpected kind %v", k)
		}
	}
}

func TestSegmentWriterJournalRoundTrip(t *testing.T) {
	fs, err := NewDirFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	states := writeJournal(t, fs, true)

	j, err := OpenJournal(fs)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	if !j.Manifest.Complete || !j.Complete() {
		t.Fatalf("journal should be complete: %+v", j.Manifest)
	}
	if got := len(j.Manifest.Segments); got != 3 {
		t.Fatalf("segments = %d, want 3", got)
	}
	if got := len(j.Manifest.Checkpoints); got != 2 {
		t.Fatalf("checkpoints = %d, want 2", got)
	}
	if j.ProgHash() != 0xfeed {
		t.Fatalf("prog hash %x", j.ProgHash())
	}
	// 7 sink calls per batch, minus the switch (switch stream): 6 data
	// events per segment, +1 EvEnd in the last.
	if ev := j.Events(); ev != 19 {
		t.Fatalf("events = %d, want 19", ev)
	}

	src, err := j.Source()
	if err != nil {
		t.Fatalf("Source: %v", err)
	}
	clocks, switches, _ := drainJournalSource(t, src)
	want := []int64{10, 11, 12, 13, 14, 20, 21, 22, 23, 24, 30, 31, 32, 33, 34}
	if len(clocks) != len(want) {
		t.Fatalf("clocks %v, want %v", clocks, want)
	}
	for i := range want {
		if clocks[i] != want[i] {
			t.Fatalf("clock[%d] = %d, want %d", i, clocks[i], want[i])
		}
	}
	if len(switches) != 3 || switches[0] != 10 || switches[2] != 30 {
		t.Fatalf("switches %v", switches)
	}

	// Checkpoints load and carry their state through the CRC'd container.
	for i, ci := range j.Manifest.Checkpoints {
		ck, err := j.LoadCheckpoint(ci)
		if err != nil {
			t.Fatalf("LoadCheckpoint %d: %v", i, err)
		}
		if !bytes.Equal(ck.State, states[i]) {
			t.Fatalf("checkpoint %d state %q, want %q", i, ck.State, states[i])
		}
	}
	// The loaded (seekable) Reader agrees with the chunked source.
	src0, err := j.Source()
	if err != nil {
		t.Fatalf("Source: %v", err)
	}
	r, err := src0.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	for _, w := range want {
		for {
			k, err := r.Peek()
			if err != nil {
				t.Fatalf("flat peek: %v", err)
			}
			if k == EvClock {
				break
			}
			if _, err := r.Input(); err != nil {
				t.Fatalf("flat input: %v", err)
			}
		}
		v, err := r.Clock()
		if err != nil || v != w {
			t.Fatalf("flat clock = %d/%v, want %d", v, err, w)
		}
	}

	// It knows where each segment starts: from segment 2's seam, replay
	// sees only that segment.
	pos, ok := r.SegmentStart(2)
	if !ok {
		t.Fatal("loaded journal has no seam for segment 2")
	}
	r.Seek(pos)
	clocks2, switches2, _ := drainJournalSource(t, r)
	if len(clocks2) != 5 || clocks2[0] != 30 || len(switches2) != 1 || switches2[0] != 30 {
		t.Fatalf("segment 2 clocks %v, switches %v", clocks2, switches2)
	}
}

func TestJournalTailSalvageUnsealed(t *testing.T) {
	fs, err := NewDirFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// No Close: the third segment is an unsealed tail (SyncEvent flushed
	// every event through the bufio layer, like a crash after a flush).
	writeJournal(t, fs, false)

	j, err := OpenJournal(fs)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	if j.Manifest.Complete {
		t.Fatal("manifest must not be complete without Close")
	}
	if got := len(j.Manifest.Segments); got != 2 {
		t.Fatalf("sealed segments = %d, want 2", got)
	}
	if j.TailReport == nil {
		t.Fatal("expected a salvaged tail")
	}
	// SyncEvent flushed everything incl. the EvEnd; only the stream end
	// marker is missing, so the journal still replays to completion.
	if !j.TailReport.EndEvent {
		t.Fatalf("tail report: %+v", j.TailReport)
	}
	if j.TailReport.Complete {
		t.Fatal("tail must not have its end marker")
	}
	src, err := j.Source()
	if err != nil {
		t.Fatalf("Source: %v", err)
	}
	clocks, _, _ := drainJournalSource(t, src)
	if len(clocks) != 15 {
		t.Fatalf("salvaged %d clocks, want 15", len(clocks))
	}
}

func TestJournalNoManifestPreFirstSeal(t *testing.T) {
	fs, err := NewDirFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sw, err := NewSegmentWriter(fs, 0xabc, SegmentOptions{
		StreamOptions: StreamOptions{ChunkBytes: 16, Sync: SyncEvent},
	})
	if err != nil {
		t.Fatal(err)
	}
	sw.Clock(7)
	sw.Clock(8)
	// crash before the first rotation: no manifest at all

	j, err := OpenJournal(fs)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	if j.ProgHash() != 0xabc {
		t.Fatalf("prog hash from tail header = %x", j.ProgHash())
	}
	if len(j.Manifest.Segments) != 0 || j.TailReport == nil || j.TailReport.Events != 2 {
		t.Fatalf("journal: %s", j)
	}
}

func TestOpenJournalRejectsGarbage(t *testing.T) {
	fs, err := NewDirFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(fs); err == nil {
		t.Fatal("empty dir must not open as a journal")
	}
}

func TestManifestRoundTripAndCorruption(t *testing.T) {
	m := &Manifest{
		ProgHash: 0xdeadbeefcafe,
		Complete: true,
		Segments: []SegmentInfo{
			{Index: 0, Name: SegmentFileName(0), Events: 10, Switches: 3, Bytes: 456},
			{Index: 1, Name: SegmentFileName(1), Events: 7, Switches: 1, Bytes: 123},
		},
		Checkpoints: []CheckpointInfo{{Index: 1, Name: CheckpointFileName(1), VMEvents: 4242}},
	}
	enc := m.Encode()
	got, err := ParseManifest(enc)
	if err != nil {
		t.Fatalf("ParseManifest: %v", err)
	}
	if got.ProgHash != m.ProgHash || !got.Complete ||
		len(got.Segments) != 2 || got.Segments[1].Bytes != 123 ||
		len(got.Checkpoints) != 1 || got.Checkpoints[0].VMEvents != 4242 {
		t.Fatalf("round trip mismatch: %+v", got)
	}

	for i := 0; i < len(enc); i++ {
		bad := append([]byte(nil), enc...)
		bad[i] ^= 0x10
		if m2, err := ParseManifest(bad); err == nil {
			// A flip inside a number could still parse if the CRC also
			// changed to match — impossible for a single flip.
			t.Fatalf("flip at %d parsed: %+v", i, m2)
		}
	}

	if _, err := ParseManifest([]byte("DVSG1 00ff\nbogus\ncrc 00000000\n")); err == nil {
		t.Fatal("bogus directive must not parse")
	}
	evil := &Manifest{Segments: []SegmentInfo{{Index: 0, Name: "../escape.dvs"}}}
	if _, err := ParseManifest(evil.Encode()); err == nil {
		t.Fatal("path-escaping segment name must not parse")
	}
}

// TestManifestGolden pins the manifest's exact bytes, crc line included,
// for a manifest with every kind of line: an origin, two segments (one
// holding more than 2^32 events), a checkpoint and the complete marker.
// The program hash and the crc both start with a zero digit, so the
// padding of both hex fields shows.
func TestManifestGolden(t *testing.T) {
	m := &Manifest{
		ProgHash: 0x00c0ffee0badf00d,
		Origin:   4102,
		Complete: true,
		Segments: []SegmentInfo{
			{Index: 0, Name: SegmentFileName(0), Events: 12, Switches: 3, Bytes: 1234},
			{Index: 1, Name: SegmentFileName(1), Events: 1<<32 + 5, Switches: 0, Bytes: 77},
		},
		Checkpoints: []CheckpointInfo{{Index: 1, Name: CheckpointFileName(1), VMEvents: 99999}},
	}
	const want = "DVSG1 00c0ffee0badf00d\n" +
		"origin 4102\n" +
		"seg 0 seg-000000.dvs 12 3 1234\n" +
		"seg 1 seg-000001.dvs 4294967301 0 77\n" +
		"ckpt 1 ckpt-000001.dvck 99999\n" +
		"complete\n" +
		"crc 0c7a93f4\n"
	if got := string(m.Encode()); got != want {
		t.Fatalf("manifest bytes:\n%q\nwant\n%q", got, want)
	}
	// Appending after other bytes leaves them alone and covers only the
	// manifest with the crc.
	if got := string(m.appendTo([]byte("xyz"))); got != "xyz"+want {
		t.Fatalf("appendTo after a prefix:\n%q", got)
	}
	back, err := ParseManifest([]byte(want))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, m) {
		t.Fatalf("parsed %+v, want %+v", back, m)
	}
}

func TestCheckpointCodecAndCorruption(t *testing.T) {
	ck := Checkpoint{Index: 3, VMEvents: 1 << 33, BoundaryNYP: 17, State: []byte("opaque vm state")}
	enc := EncodeCheckpoint(0x1234, ck)
	got, err := DecodeCheckpoint(enc, 0x1234)
	if err != nil {
		t.Fatalf("DecodeCheckpoint: %v", err)
	}
	if got.Index != 3 || got.VMEvents != 1<<33 || got.BoundaryNYP != 17 || string(got.State) != "opaque vm state" {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if _, err := DecodeCheckpoint(enc, 0x9999); !errors.Is(err, ErrCheckpoint) {
		t.Fatalf("hash mismatch not caught: %v", err)
	}
	for i := 0; i < len(enc); i++ {
		bad := append([]byte(nil), enc...)
		bad[i] ^= 0x04
		if _, err := DecodeCheckpoint(bad, 0x1234); err == nil {
			t.Fatalf("flip at %d decoded", i)
		}
	}
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeCheckpoint(enc[:cut], 0x1234); err == nil {
			t.Fatalf("truncation at %d decoded", cut)
		}
	}
}

func TestSegmentWriterRotatePolicies(t *testing.T) {
	fs, err := NewDirFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sw, err := NewSegmentWriter(fs, 1, SegmentOptions{
		StreamOptions: StreamOptions{ChunkBytes: 16},
		RotateEvents:  3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sw.RotatePending() {
		t.Fatal("fresh writer must not want rotation")
	}
	sw.Clock(1)
	sw.Clock(2)
	if sw.RotatePending() {
		t.Fatal("2 events < 3")
	}
	sw.Clock(3)
	if !sw.RotatePending() {
		t.Fatal("3 events must trigger the event policy")
	}
	if err := sw.Rotate([]byte("s"), 3, 0); err != nil {
		t.Fatalf("rotate: %v", err)
	}
	if sw.RotatePending() {
		t.Fatal("fresh segment must reset the event count")
	}
	if sw.SegmentIndex() != 1 {
		t.Fatalf("segment index = %d", sw.SegmentIndex())
	}
	if err := sw.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	fs2, err := NewDirFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sb, err := NewSegmentWriter(fs2, 1, SegmentOptions{
		StreamOptions: StreamOptions{ChunkBytes: 16, Sync: SyncEvent},
		RotateBytes:   64,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; !sb.RotatePending(); i++ {
		if i > 1000 {
			t.Fatal("byte policy never triggered")
		}
		sb.Input(bytes.Repeat([]byte{9}, 8))
	}
	if err := sb.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

func TestManifestNeverNamesUnsealedSegment(t *testing.T) {
	fs, err := NewDirFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sw, err := NewSegmentWriter(fs, 5, SegmentOptions{
		StreamOptions: StreamOptions{Sync: SyncEvent},
	})
	if err != nil {
		t.Fatal(err)
	}
	sw.Clock(1)
	if err := sw.Rotate([]byte("x"), 1, 0); err != nil {
		t.Fatal(err)
	}
	sw.Clock(2)
	// Mid-segment: the manifest on disk references only sealed segment 0,
	// and its checkpoint entry seeds the segment being written.
	raw, err := readAll(fs, manifestName)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ParseManifest(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Segments) != 1 || m.Complete {
		t.Fatalf("on-disk manifest mid-write: %+v", m)
	}
	if len(m.Checkpoints) != 1 || m.Checkpoints[0].Index != 1 {
		t.Fatalf("checkpoint entry: %+v", m.Checkpoints)
	}
	if !strings.Contains(string(raw), SegmentFileName(0)) || strings.Contains(string(raw), SegmentFileName(1)) {
		t.Fatalf("manifest text names an unsealed segment:\n%s", raw)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSegmentWriterQuotaRefusal exercises the byte-quota refusal path:
// the rotation that crosses the quota returns ErrJournalQuota, every sink
// call after the refusal is a no-op (no open segment exists — this used
// to nil-panic on the engine's unconditional End), and the sealed prefix
// still opens as a salvageable incomplete journal.
func TestSegmentWriterQuotaRefusal(t *testing.T) {
	fs, err := NewDirFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sw, err := NewSegmentWriter(fs, 0xfeed, SegmentOptions{
		StreamOptions:   StreamOptions{ChunkBytes: 32, Sync: SyncEvent},
		MaxJournalBytes: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		sw.Clock(int64(i))
	}
	if err := sw.Rotate([]byte("state"), 8, 0); !errors.Is(err, ErrJournalQuota) {
		t.Fatalf("rotate over quota = %v, want ErrJournalQuota", err)
	}
	// The recording engine keeps driving the sink while it unwinds; none
	// of these may panic, and End always arrives.
	sw.Clock(99)
	sw.Switch(1)
	sw.Input([]byte{1})
	sw.Native(0, nil)
	sw.Callback(0, nil)
	sw.End()
	if err := sw.Close(); !errors.Is(err, ErrJournalQuota) {
		t.Fatalf("close after quota = %v, want sticky ErrJournalQuota", err)
	}
	j, err := OpenJournal(fs)
	if err != nil {
		t.Fatalf("sealed prefix does not open: %v", err)
	}
	if j.Complete() {
		t.Fatal("quota-refused journal marked complete")
	}
	if j.Segments() == 0 {
		t.Fatal("no sealed segments salvaged before the refusal")
	}
	src, err := j.Source()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.Load(); err != nil {
		t.Fatalf("sealed prefix is not decodable: %v", err)
	}
}
