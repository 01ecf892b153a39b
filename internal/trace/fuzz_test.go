// Fuzz targets for the trace decoders. External test package so the seed
// corpus can come from real recorded executions (replaycheck/workloads
// import trace; the reverse would cycle).
package trace_test

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"dejavu/internal/bytecode"
	"dejavu/internal/replaycheck"
	"dejavu/internal/trace"
	"dejavu/internal/workloads"
)

// seedTraces records a few real workloads and returns their flat
// containers, so the fuzzers start from well-formed inputs instead of
// discovering the format from scratch.
func seedTraces(f *testing.F) [][]byte {
	f.Helper()
	var out [][]byte
	for _, s := range []struct {
		prog func() []byte
	}{
		{func() []byte {
			r, err := replaycheck.Record(workloads.Fig1AB(), replaycheck.Options{Seed: 1, HostRand: 1})
			if err != nil || r.RunErr != nil {
				f.Fatalf("seed record: %v / %v", err, r.RunErr)
			}
			return r.Trace
		}},
		{func() []byte {
			r, err := replaycheck.Record(workloads.Bank(2, 4, 3), replaycheck.Options{Seed: 2, HostRand: 2})
			if err != nil || r.RunErr != nil {
				f.Fatalf("seed record: %v / %v", err, r.RunErr)
			}
			return r.Trace
		}},
		{func() []byte {
			r, err := replaycheck.Record(workloads.SumLines(),
				replaycheck.Options{Seed: 3, HostRand: 3, Input: "5\n15\n22\n\n"})
			if err != nil || r.RunErr != nil {
				f.Fatalf("seed record: %v / %v", err, r.RunErr)
			}
			return r.Trace
		}},
	} {
		out = append(out, s.prog())
	}
	return out
}

// seedStreams records real workloads as streamed (DVS1) containers with
// small chunks, and returns each with a prefix and single-bit flips in its
// first chunk frame and mid-container, so the container-sniffing decoders
// start from both formats.
func seedStreams(f *testing.F) [][]byte {
	f.Helper()
	var out [][]byte
	for i, mk := range []func() *bytecode.Program{workloads.Fig1AB, func() *bytecode.Program { return workloads.Bank(2, 4, 3) }} {
		var buf bytes.Buffer
		r, err := replaycheck.RecordTo(mk(), &buf, replaycheck.Options{Seed: int64(i + 1), HostRand: int64(i + 1), ChunkBytes: 24})
		if err != nil || r.RunErr != nil {
			f.Fatalf("seed stream record: %v / %v", err, r.RunErr)
		}
		tr := buf.Bytes()
		out = append(out, tr, tr[:len(tr)-1], tr[:len(tr)/2])
		for _, off := range []int{12, 13, len(tr) / 3} {
			mut := bytes.Clone(tr)
			mut[off] ^= 0x10
			out = append(out, mut)
		}
	}
	return out
}

func traceHash(raw []byte) uint64 {
	if len(raw) < 12 {
		return 0
	}
	return binary.LittleEndian.Uint64(raw[4:12])
}

// FuzzTraceReader drives NewReader and the Reader it returns over
// arbitrary bytes in either container format: any input must produce
// either clean decoding or an error — never a panic, hang, or out-of-range
// access.
func FuzzTraceReader(f *testing.F) {
	for _, tr := range seedTraces(f) {
		f.Add(tr)
		// Truncations and bit flips of real traces reach deep decode paths.
		f.Add(tr[:len(tr)/2])
		mut := append([]byte(nil), tr...)
		mut[len(mut)/3] ^= 0x40
		f.Add(mut)
	}
	f.Add([]byte("DVT2"))
	f.Add([]byte{})
	for _, tr := range seedStreams(f) {
		f.Add(tr)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := trace.NewReader(data, traceHash(data))
		if err != nil {
			return
		}
		for {
			if _, ok := r.NextSwitch(); !ok {
				break
			}
		}
		for i := 0; i < 1<<20; i++ {
			k, err := r.Peek()
			if err != nil {
				return
			}
			switch k {
			case trace.EvClock:
				_, err = r.Clock()
			case trace.EvNative:
				// id 0 may mismatch the recorded id; a divergence error is
				// a valid outcome, we only require no panic.
				_, err = r.Native(0)
			case trace.EvInput:
				_, err = r.Input()
			case trace.EvCallback:
				_, _, err = r.Callback()
			case trace.EvEnd:
				return
			default:
				t.Fatalf("Peek returned invalid kind %v without error", k)
			}
			if err != nil {
				return
			}
		}
	})
}

// FuzzSummarize checks Summarize either rejects the input (of either
// container format) or returns an internally consistent summary.
func FuzzSummarize(f *testing.F) {
	for _, tr := range seedTraces(f) {
		f.Add(tr)
		f.Add(tr[:len(tr)-1])
	}
	f.Add([]byte("DVT2\x00\x00\x00\x00\x00\x00\x00\x00\x00\x06"))
	for _, tr := range seedStreams(f) {
		f.Add(tr)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := trace.Summarize(data)
		if err != nil {
			return
		}
		if s.Stats.TotalBytes != len(data) {
			t.Fatalf("TotalBytes = %d, input is %d", s.Stats.TotalBytes, len(data))
		}
		if s.Stats.Events[trace.EvEnd] != 1 {
			t.Fatalf("accepted trace with %d EvEnd events", s.Stats.Events[trace.EvEnd])
		}
		if s.SwitchNYP.Min > s.SwitchNYP.Max {
			t.Fatalf("nyp Min %d > Max %d", s.SwitchNYP.Min, s.SwitchNYP.Max)
		}
	})
}

// FuzzSegmentManifest checks the journal manifest codec: ParseManifest
// must reject or accept without panicking, and anything it accepts must
// survive an encode/parse round trip unchanged.
func FuzzSegmentManifest(f *testing.F) {
	seed := &trace.Manifest{
		ProgHash: 0xdeadbeefcafe,
		Segments: []trace.SegmentInfo{
			{Index: 0, Name: trace.SegmentFileName(0), Events: 12, Switches: 3, Bytes: 90},
			{Index: 1, Name: trace.SegmentFileName(1), Events: 9, Switches: 2, Bytes: 75},
		},
		Checkpoints: []trace.CheckpointInfo{
			{Index: 1, Name: trace.CheckpointFileName(1), VMEvents: 92},
		},
	}
	f.Add(seed.Encode())
	seed.Complete = true
	f.Add(seed.Encode())
	f.Add((&trace.Manifest{ProgHash: 1}).Encode())
	f.Add([]byte("DVSG1 0000000000000001\ncrc 00000000\n"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := trace.ParseManifest(data)
		if err != nil {
			return
		}
		again, err := trace.ParseManifest(m.Encode())
		if err != nil {
			t.Fatalf("re-encoded manifest rejected: %v", err)
		}
		if !reflect.DeepEqual(m, again) {
			t.Fatalf("manifest round trip changed:\n%+v\nvs\n%+v", m, again)
		}
	})
}

// FuzzFlushManifest targets the flight-flush shape of the manifest codec:
// Origin > 0 with segment indices shifted to start mid-journal, the way a
// ring flush publishes an evicted window. Anything ParseManifest accepts
// must round trip unchanged — in particular the origin line, which the
// debugger's clamp depends on.
func FuzzFlushManifest(f *testing.F) {
	seed := &trace.Manifest{
		ProgHash: 0xf11587f11587,
		Origin:   184,
		Segments: []trace.SegmentInfo{
			{Index: 3, Name: trace.SegmentFileName(3), Events: 7, Switches: 2, Bytes: 48},
			{Index: 4, Name: trace.SegmentFileName(4), Events: 5, Switches: 1, Bytes: 36},
		},
		Checkpoints: []trace.CheckpointInfo{
			{Index: 3, Name: trace.CheckpointFileName(3), VMEvents: 184},
			{Index: 4, Name: trace.CheckpointFileName(4), VMEvents: 230},
		},
	}
	f.Add(seed.Encode())
	seed.Complete = true
	f.Add(seed.Encode())
	seed.Origin = 1
	f.Add(seed.Encode())
	f.Add((&trace.Manifest{ProgHash: 2, Origin: ^uint64(0)}).Encode())
	f.Add([]byte("DVSG1 0000000000000002\norigin 184\ncrc 00000000\n"))
	f.Add([]byte("origin 1\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := trace.ParseManifest(data)
		if err != nil {
			return
		}
		again, err := trace.ParseManifest(m.Encode())
		if err != nil {
			t.Fatalf("re-encoded flush manifest rejected: %v", err)
		}
		if !reflect.DeepEqual(m, again) {
			t.Fatalf("flush manifest round trip changed:\n%+v\nvs\n%+v", m, again)
		}
		if again.Origin != m.Origin {
			t.Fatalf("origin lost in round trip: %d vs %d", m.Origin, again.Origin)
		}
	})
}
