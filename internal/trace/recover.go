// Torn-tail recovery for streaming trace containers.
//
// A crash mid-record leaves a DVS1 container without its end marker and
// usually with a partial final chunk; a storage fault can flip bits
// anywhere. Recovery salvages the longest valid checksummed prefix —
// everything up to (not including) the first damaged or incomplete chunk —
// then trims both demultiplexed streams back to whole units (complete
// switch varints, complete data events), so the salvaged trace replays
// deterministically to the salvage point instead of failing mid-decode.
//
// The scan is incremental: each chunk's payload passes through a
// switchTrim/dataTrim scanner that emits complete units as they close and
// carries only the unfinished suffix forward, so memory stays bounded by
// one chunk plus one event regardless of journal size. RecoverStream
// re-frames the salvage as a sealed DVS1 container; OpenJournal runs the
// same scan over a journal's unsealed tail.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"dejavu/internal/obs"
)

// RecoverReport describes what recovery salvaged and why it stopped.
type RecoverReport struct {
	ProgHash uint64
	Complete bool // the container end marker was reached intact
	EndEvent bool // the salvaged data stream ends with EvEnd (replay can finish)

	Chunks   int // whole chunks salvaged
	Switches int // complete switch entries salvaged
	Events   int // complete data events salvaged

	SalvagedBytes int64 // container bytes covered by the salvage (incl. header)
	TotalBytes    int64 // container bytes examined, including the discarded tail

	// EstimatedEvents extrapolates the recording's full event count (~M in
	// "replayed N of ~M events") from the salvaged density; equals Events
	// when the trace is complete.
	EstimatedEvents int

	// Reason says why salvage stopped short (checksum mismatch, torn tail,
	// unknown tag, ...); empty when Complete.
	Reason string
}

// Observe exports the salvage outcome into reg: how much of a torn
// recording survived, and whether salvage stopped short. Called after
// recovery completes, so it perturbs nothing.
func (r *RecoverReport) Observe(reg *obs.Registry) {
	if reg == nil {
		return
	}
	b := func(v bool) int64 {
		if v {
			return 1
		}
		return 0
	}
	reg.Gauge("dv_recover_complete").Set(b(r.Complete))
	reg.Gauge("dv_recover_end_event").Set(b(r.EndEvent))
	reg.Gauge("dv_recover_chunks").Set(int64(r.Chunks))
	reg.Gauge("dv_recover_switches").Set(int64(r.Switches))
	reg.Gauge("dv_recover_events").Set(int64(r.Events))
	reg.Gauge("dv_recover_salvaged_bytes").Set(r.SalvagedBytes)
	reg.Gauge("dv_recover_dropped_bytes").Set(r.TotalBytes - r.SalvagedBytes)
}

// String renders the one-line salvage summary the CLI prints.
func (r *RecoverReport) String() string {
	if r.Complete {
		return fmt.Sprintf("complete trace: %d chunks, %d switches, %d events (%d bytes)",
			r.Chunks, r.Switches, r.Events, r.SalvagedBytes)
	}
	return fmt.Sprintf("salvaged %d chunks, %d switches, %d events (%d of %d bytes; dropped %d): %s",
		r.Chunks, r.Switches, r.Events, r.SalvagedBytes, r.TotalBytes, r.TotalBytes-r.SalvagedBytes, r.Reason)
}

// RecoverStream salvages src into dst as a sealed, checksummed DVS1
// container, holding at most one chunk plus one unfinished event in memory.
// The output always carries an end marker, so readers see a clean frame
// boundary. It replays deterministically up to the salvage point; unless
// the report says EndEvent, replay then stops with a TruncatedError
// (errors.Is io.ErrUnexpectedEOF), which callers should present as a
// partial replay, not corruption.
//
// Only the container header must be intact; RecoverStream returns an
// error, and writes nothing, when even that is unreadable.
func RecoverStream(src io.Reader, dst io.Writer) (*RecoverReport, error) {
	bw := bufio.NewWriter(dst)
	var werr error
	write := func(p []byte) bool {
		if werr == nil {
			_, werr = bw.Write(p)
		}
		return werr == nil
	}
	frame := func(tag byte) func([]byte) {
		return func(p []byte) { writeFrame(write, tag, p) }
	}
	rep, err := salvageStream(src,
		func(progHash uint64) { writeStreamHeader(write, progHash) },
		frame(chunkSwitch), frame(chunkData))
	if err != nil {
		return nil, err
	}
	writeFrame(write, chunkEnd, nil)
	if werr == nil {
		werr = bw.Flush()
	}
	if werr != nil {
		return rep, fmt.Errorf("trace: recover: writing salvage: %w", werr)
	}
	return rep, nil
}

// salvageStream is the shared scan: walk whole chunks until damage or EOF,
// push payloads through the incremental trimmers, and report. onHeader
// (optional) fires once after the container header validates; emitSw and
// emitData (optional) receive complete salvaged units in stream order.
func salvageStream(r io.Reader, onHeader func(progHash uint64), emitSw, emitData func([]byte)) (*RecoverReport, error) {
	cr := &countingReader{r: r}
	br := bufio.NewReader(cr)
	progHash, err := readStreamHeader(br)
	if err != nil {
		return nil, fmt.Errorf("trace: recover: not a streaming container (bad or torn header)")
	}
	rep := &RecoverReport{ProgHash: progHash, SalvagedBytes: int64(streamHeaderLen)}
	if onHeader != nil {
		onHeader(rep.ProgHash)
	}

	st := &switchTrim{emit: emitSw}
	dt := &dataTrim{emit: emitData}
	for {
		c, err := readChunk(br)
		if err == io.EOF {
			rep.Reason = "torn at a chunk boundary (no end marker)"
			break
		}
		if err != nil {
			rep.Reason = err.Error()
			break
		}
		if c.tag == chunkEnd {
			rep.Complete = true
			rep.SalvagedBytes += c.frameBytes
			rep.Chunks++
			break
		}
		if c.tag == chunkSwitch {
			st.feed(c.payload)
		} else {
			dt.feed(c.payload)
		}
		rep.SalvagedBytes += c.frameBytes
		rep.Chunks++
	}
	// Size the damage: drain whatever remains after the salvage point.
	io.Copy(io.Discard, br)
	rep.TotalBytes = cr.n

	rep.Switches = st.n
	rep.Events = dt.n
	rep.EndEvent = dt.sawEnd

	rep.EstimatedEvents = rep.Events
	if !rep.Complete && rep.SalvagedBytes > int64(streamHeaderLen) && rep.TotalBytes > rep.SalvagedBytes {
		rep.EstimatedEvents = int(int64(rep.Events) * rep.TotalBytes / rep.SalvagedBytes)
	}
	return rep, nil
}

// countingReader counts bytes pulled from the underlying reader.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// switchTrim incrementally trims the switch stream to complete varints.
// StreamWriter chunks only hold whole entries, but the reader does not rely
// on that, so an entry may span chunks; the pending suffix never exceeds
// one varint (< 10 bytes). An overflowed varint is permanent damage:
// everything after it is dropped, matching the whole-buffer trim this
// replaced.
type switchTrim struct {
	pend []byte
	n    int
	dead bool
	emit func([]byte)
}

func (t *switchTrim) feed(p []byte) {
	if t.dead {
		return
	}
	t.pend = append(t.pend, p...)
	cut := 0
	for cut < len(t.pend) {
		_, k := binary.Uvarint(t.pend[cut:])
		if k == 0 {
			break // incomplete entry: wait for the next chunk
		}
		if k < 0 {
			t.dead = true
			break
		}
		cut += k
		t.n++
	}
	if cut > 0 {
		if t.emit != nil {
			t.emit(t.pend[:cut])
		}
		t.pend = append(t.pend[:0], t.pend[cut:]...)
	}
	if t.dead {
		t.pend = nil
	}
}

// dataTrim incrementally trims the data stream to complete, well-formed
// events. A truncation error means the event may finish in a later chunk
// (keep the suffix pending); any other decode error is permanent damage.
// Anything after an EvEnd is dropped.
type dataTrim struct {
	pend   []byte
	n      int
	sawEnd bool
	dead   bool
	emit   func([]byte)
}

func (t *dataTrim) feed(p []byte) {
	if t.dead || t.sawEnd {
		return
	}
	t.pend = append(t.pend, p...)
	r := &Reader{data: t.pend}
	lastGood := 0
	for {
		k, err := r.Peek()
		if err != nil {
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.dead = true
			}
			break
		}
		if k == EvEnd {
			lastGood = r.pos + 1
			t.n++
			t.sawEnd = true
			break
		}
		if err := r.skipEvent(k); err != nil {
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.dead = true
			}
			break
		}
		lastGood = r.pos
		t.n++
	}
	if lastGood > 0 {
		if t.emit != nil {
			t.emit(t.pend[:lastGood])
		}
		t.pend = append(t.pend[:0], t.pend[lastGood:]...)
	}
	if t.dead || t.sawEnd {
		t.pend = nil
	}
}

// skipEvent consumes one data event of kind k without interpreting it (in
// particular, without checking native-call ids the way Native does).
func (r *Reader) skipEvent(k Kind) error {
	if err := r.expect(k); err != nil {
		return err
	}
	switch k {
	case EvClock:
		_, err := r.sv()
		return err
	case EvNative, EvCallback:
		if _, err := r.uv(); err != nil { // native/callback id
			return err
		}
		cnt, err := r.uv()
		if err != nil {
			return err
		}
		if cnt > uint64(len(r.data)-r.pos) {
			return r.truncated()
		}
		for i := uint64(0); i < cnt; i++ {
			if _, err := r.sv(); err != nil {
				return err
			}
		}
		return nil
	case EvInput:
		cnt, err := r.uv()
		if err != nil {
			return err
		}
		if cnt > uint64(len(r.data)-r.pos) {
			return r.truncated()
		}
		r.pos += int(cnt)
		return nil
	case EvEnd:
		return nil
	default:
		return fmt.Errorf("trace: unknown event kind %d", k)
	}
}
