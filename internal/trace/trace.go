// Package trace implements DejaVu's recorded event streams.
//
// A trace holds two independent streams, matching the paper's observation
// (footnote 7) that "logging data for non-reproducible events ... need be
// done independently of thread switch information in all replay schemes":
//
//   - the switch stream: one varint per preemptive thread switch, holding
//     nyp, the count of yield points executed since the previous switch
//     (Fig. 2). Replay prefetches the next value to count down against.
//   - the data stream: tagged events holding the results of
//     non-deterministic operations (clock reads, native results, input,
//     callback parameters), consumed strictly in execution order.
//
// An out-of-order data read means the replayed execution has diverged from
// the recorded one — broken symmetry — and is reported as a
// DivergenceError.
package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
)

// Kind tags one data-stream event.
type Kind uint8

const (
	// EvSwitch is reported in Stats for the switch stream; it never
	// appears as a data-stream tag.
	EvSwitch Kind = iota + 1
	// EvClock records one wall-clock read.
	EvClock
	// EvNative records the results of one non-deterministic native call.
	EvNative
	// EvInput records bytes read from the environment.
	EvInput
	// EvCallback records the parameters of one native-to-VM callback.
	EvCallback
	// EvEnd terminates the data stream.
	EvEnd
)

var kindNames = [...]string{"<0>", "switch", "clock", "native", "input", "callback", "end"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

const magic = "DVT2"

// Stats summarizes a trace for the evaluation harness.
type Stats struct {
	Events      map[Kind]int
	BytesByKind map[Kind]int
	TotalBytes  int
}

// Sink is the recording surface shared by Writer (in-memory container)
// and StreamWriter (incremental container to an io.Writer). The engine
// logs through this interface so record mode is independent of where the
// trace bytes end up.
type Sink interface {
	Switch(nyp uint64)
	Clock(v int64)
	Native(id int, vals []int64)
	Input(b []byte)
	Callback(cb int, params []int64)
	End()
	Stats() Stats
}

// Source is the replay surface shared by Reader (in-memory container) and
// StreamReader (incremental container from an io.Reader).
type Source interface {
	NextSwitch() (nyp uint64, ok bool)
	Peek() (Kind, error)
	Clock() (int64, error)
	Native(id int) ([]int64, error)
	Input() ([]byte, error)
	Callback() (cb int, params []int64, err error)
	AtEnd() bool
	EventIndex() int
	SwitchesRemaining() bool
}

// eventLog accumulates the two streams plus per-kind statistics. Writer
// and StreamWriter share it, so both paths emit identical stream bytes.
type eventLog struct {
	sw    bytes.Buffer // switch stream: raw varints
	data  bytes.Buffer // data stream: tagged events
	stats Stats
}

func newEventLog() eventLog {
	return eventLog{stats: Stats{Events: map[Kind]int{}, BytesByKind: map[Kind]int{}}}
}

func (l *eventLog) event(k Kind, body func()) {
	start := l.data.Len()
	l.data.WriteByte(byte(k))
	if body != nil {
		body()
	}
	l.stats.Events[k]++
	l.stats.BytesByKind[k] += l.data.Len() - start
}

func (l *eventLog) logSwitch(nyp uint64) {
	start := l.sw.Len()
	uvTo(&l.sw, nyp)
	l.stats.Events[EvSwitch]++
	l.stats.BytesByKind[EvSwitch] += l.sw.Len() - start
}

func (l *eventLog) logClock(v int64) { l.event(EvClock, func() { svTo(&l.data, v) }) }

func (l *eventLog) logNative(id int, vals []int64) {
	l.event(EvNative, func() {
		uvTo(&l.data, uint64(id))
		uvTo(&l.data, uint64(len(vals)))
		for _, v := range vals {
			svTo(&l.data, v)
		}
	})
}

func (l *eventLog) logInput(b []byte) {
	l.event(EvInput, func() {
		uvTo(&l.data, uint64(len(b)))
		l.data.Write(b)
	})
}

func (l *eventLog) logCallback(cb int, params []int64) {
	l.event(EvCallback, func() {
		uvTo(&l.data, uint64(cb))
		uvTo(&l.data, uint64(len(params)))
		for _, v := range params {
			svTo(&l.data, v)
		}
	})
}

func (l *eventLog) logEnd() { l.event(EvEnd, nil) }

// Writer builds a trace. DejaVu pre-allocates the writer during
// initialization in both modes (symmetric allocation, §2.4).
type Writer struct {
	progHash uint64
	log      eventLog
}

// NewWriter starts a trace for a program identified by progHash.
func NewWriter(progHash uint64) *Writer {
	return &Writer{progHash: progHash, log: newEventLog()}
}

func uvTo(buf *bytes.Buffer, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	buf.Write(tmp[:n])
}

func svTo(buf *bytes.Buffer, v int64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutVarint(tmp[:], v)
	buf.Write(tmp[:n])
}

// Switch logs a preemptive thread switch after nyp yield points.
func (w *Writer) Switch(nyp uint64) { w.log.logSwitch(nyp) }

// Clock logs one wall-clock value.
func (w *Writer) Clock(v int64) { w.log.logClock(v) }

// Native logs the result words of non-deterministic native call id.
func (w *Writer) Native(id int, vals []int64) { w.log.logNative(id, vals) }

// Input logs environment bytes (console reads etc.).
func (w *Writer) Input(b []byte) { w.log.logInput(b) }

// Callback logs one native-to-VM callback: which callback and its params.
func (w *Writer) Callback(cb int, params []int64) { w.log.logCallback(cb, params) }

// End finalizes the data stream.
func (w *Writer) End() { w.log.logEnd() }

// appendContainer assembles the flat DVT2 container:
// magic, progHash, len(switch stream), switch stream, data stream.
func appendContainer(progHash uint64, sw, data []byte) []byte {
	out := make([]byte, 0, containerLen(len(sw), len(data)))
	out = append(out, magic...)
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], progHash)
	out = append(out, tmp[:]...)
	var uv [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(uv[:], uint64(len(sw)))
	out = append(out, uv[:n]...)
	out = append(out, sw...)
	out = append(out, data...)
	return out
}

func containerLen(swLen, dataLen int) int {
	return len(magic) + 8 + uvLen(uint64(swLen)) + swLen + dataLen
}

// Bytes returns the encoded trace container.
func (w *Writer) Bytes() []byte {
	return appendContainer(w.progHash, w.log.sw.Bytes(), w.log.data.Bytes())
}

// Stats returns event counts and sizes.
func (w *Writer) Stats() Stats {
	w.log.stats.TotalBytes = containerLen(w.log.sw.Len(), w.log.data.Len())
	return w.log.stats
}

func uvLen(v uint64) int {
	var tmp [binary.MaxVarintLen64]byte
	return binary.PutUvarint(tmp[:], v)
}

// DivergenceError reports that replay consumed the data stream out of step
// with the recorded execution — the tell-tale sign of broken symmetry
// (§2.4 of the paper).
type DivergenceError struct {
	Index    int  // data event ordinal
	Expected Kind // what replay asked for
	Found    Kind // what the trace holds

	// Logical-clock position, filled in by the engine (the trace layer only
	// knows event ordinals): the thread whose execution requested the event
	// and the yield points executed so far. Thread is -1 when unknown.
	Thread int
	Yields uint64
}

func (e *DivergenceError) Error() string {
	if e.Thread >= 0 {
		return fmt.Sprintf("trace: replay divergence at event %d (thread %d, %d yield points): execution requested %v but trace holds %v",
			e.Index, e.Thread, e.Yields, e.Expected, e.Found)
	}
	return fmt.Sprintf("trace: replay divergence at event %d: execution requested %v but trace holds %v",
		e.Index, e.Expected, e.Found)
}

// TruncatedError reports that the data stream ended mid-event. Unlike a
// bare io.ErrUnexpectedEOF it carries the event ordinal and the kind being
// decoded, so divergence reports stay actionable. It unwraps to
// io.ErrUnexpectedEOF for errors.Is compatibility.
type TruncatedError struct {
	Index int  // data-event ordinal being decoded when bytes ran out
	Kind  Kind // event kind being decoded; 0 when the tag byte itself is missing
}

func (e *TruncatedError) Error() string {
	if e.Kind == 0 {
		return fmt.Sprintf("trace: data stream truncated at event %d: event tag missing", e.Index)
	}
	return fmt.Sprintf("trace: data stream truncated at event %d while decoding %v payload", e.Index, e.Kind)
}

// Unwrap makes errors.Is(err, io.ErrUnexpectedEOF) hold.
func (e *TruncatedError) Unwrap() error { return io.ErrUnexpectedEOF }

// headerLen is the fixed container prefix: magic plus the program hash.
const headerLen = len(magic) + 8

// decodeContainer parses either container — flat DVT2 or streamed DVS1 —
// into its program hash and a Reader over both streams. It is the single,
// bounds-checked parser shared by NewReader and Summarize; a flat
// container's streams alias raw.
func decodeContainer(raw []byte) (uint64, *Reader, error) {
	if IsStream(raw) {
		s, h, err := openStream(bytes.NewReader(raw))
		if err != nil {
			return 0, nil, err
		}
		r, err := s.Load()
		return h, r, err
	}
	if len(raw) < headerLen || string(raw[:len(magic)]) != magic {
		return 0, nil, fmt.Errorf("trace: bad magic")
	}
	progHash := binary.LittleEndian.Uint64(raw[len(magic):headerLen])
	rest := raw[headerLen:]
	swLen, n := binary.Uvarint(rest)
	if n <= 0 || swLen > uint64(len(rest)-n) {
		// The guard also keeps swLen within int range on 32-bit platforms:
		// it cannot exceed len(rest), which is an int.
		return 0, nil, fmt.Errorf("trace: container header truncated: %w", io.ErrUnexpectedEOF)
	}
	rest = rest[n:]
	return progHash, &Reader{sw: rest[:swLen], data: rest[swLen:]}, nil
}

// Reader consumes a trace: the switch stream via NextSwitch, the data
// stream in strict order via the typed methods.
type Reader struct {
	sw       []byte
	swPos    int
	data     []byte
	pos      int
	index    int
	decoding Kind // kind whose payload is being decoded, for TruncatedError
}

// NewReader validates a trace container of either kind against progHash.
// A streamed (DVS1) container is read whole and every chunk checksum
// verified; any damage is an error (use RecoverStream to salvage).
func NewReader(raw []byte, progHash uint64) (*Reader, error) {
	h, r, err := decodeContainer(raw)
	if err != nil {
		return nil, err
	}
	if h != progHash {
		return nil, hashMismatch(h, progHash)
	}
	return r, nil
}

// NextSwitch returns the next recorded nyp value, or ok=false when the
// recorded execution performed no further preemptive switches.
func (r *Reader) NextSwitch() (nyp uint64, ok bool) {
	if r.swPos >= len(r.sw) {
		return 0, false
	}
	v, n := binary.Uvarint(r.sw[r.swPos:])
	if n <= 0 {
		return 0, false
	}
	r.swPos += n
	return v, true
}

// Peek returns the kind of the next data event without consuming it. A
// byte that is not a valid data-stream kind (EvClock..EvEnd) reports
// corruption here rather than leaking an undefined Kind to the caller.
func (r *Reader) Peek() (Kind, error) {
	if r.pos >= len(r.data) {
		return 0, &TruncatedError{Index: r.index}
	}
	k := Kind(r.data[r.pos])
	if k < EvClock || k > EvEnd {
		return 0, fmt.Errorf("trace: unknown event kind %d at event %d", k, r.index)
	}
	return k, nil
}

func (r *Reader) expect(k Kind) error {
	found, err := r.Peek()
	if err != nil {
		return err
	}
	if found != k {
		return &DivergenceError{Index: r.index, Expected: k, Found: found, Thread: -1}
	}
	r.pos++
	r.index++
	r.decoding = k
	return nil
}

// truncated builds the contextual truncation error for the event whose
// payload is currently being decoded (its tag was already consumed, so the
// ordinal is index-1).
func (r *Reader) truncated() error {
	return &TruncatedError{Index: r.index - 1, Kind: r.decoding}
}

func (r *Reader) uv() (uint64, error) {
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		return 0, r.truncated()
	}
	r.pos += n
	return v, nil
}

func (r *Reader) sv() (int64, error) {
	v, n := binary.Varint(r.data[r.pos:])
	if n <= 0 {
		return 0, r.truncated()
	}
	r.pos += n
	return v, nil
}

// Clock consumes a clock event.
func (r *Reader) Clock() (int64, error) {
	if err := r.expect(EvClock); err != nil {
		return 0, err
	}
	return r.sv()
}

// Native consumes a native-result event, verifying the native id matches.
func (r *Reader) Native(id int) ([]int64, error) {
	if err := r.expect(EvNative); err != nil {
		return nil, err
	}
	gotID, err := r.uv()
	if err != nil {
		return nil, err
	}
	if int(gotID) != id {
		return nil, fmt.Errorf("trace: replay divergence at event %d: native %d recorded, %d replayed", r.index-1, gotID, id)
	}
	n, err := r.uv()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.data)-r.pos) {
		return nil, r.truncated()
	}
	vals := make([]int64, n)
	for i := range vals {
		if vals[i], err = r.sv(); err != nil {
			return nil, err
		}
	}
	return vals, nil
}

// Input consumes an input event.
func (r *Reader) Input() ([]byte, error) {
	if err := r.expect(EvInput); err != nil {
		return nil, err
	}
	n, err := r.uv()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.data)-r.pos) {
		return nil, r.truncated()
	}
	b := make([]byte, n)
	copy(b, r.data[r.pos:])
	r.pos += int(n)
	return b, nil
}

// Callback consumes a callback event.
func (r *Reader) Callback() (cb int, params []int64, err error) {
	if err := r.expect(EvCallback); err != nil {
		return 0, nil, err
	}
	id, err := r.uv()
	if err != nil {
		return 0, nil, err
	}
	n, err := r.uv()
	if err != nil {
		return 0, nil, err
	}
	if n > uint64(len(r.data)-r.pos) {
		return 0, nil, r.truncated()
	}
	params = make([]int64, n)
	for i := range params {
		if params[i], err = r.sv(); err != nil {
			return 0, nil, err
		}
	}
	return int(id), params, nil
}

// AtEnd reports whether the next data event is EvEnd.
func (r *Reader) AtEnd() bool {
	k, err := r.Peek()
	return err == nil && k == EvEnd
}

// EventIndex returns how many data events have been consumed.
func (r *Reader) EventIndex() int { return r.index }

// SwitchesRemaining reports whether unconsumed switch entries remain.
func (r *Reader) SwitchesRemaining() bool { return r.swPos < len(r.sw) }

// ReaderPos is a resumable position in both streams, for checkpointing.
type ReaderPos struct {
	SwPos, Pos, Index int
}

// Pos captures the reader position.
func (r *Reader) Pos() ReaderPos { return ReaderPos{SwPos: r.swPos, Pos: r.pos, Index: r.index} }

// Seek rewinds (or forwards) the reader to a previously captured position.
func (r *Reader) Seek(p ReaderPos) {
	r.swPos, r.pos, r.index = p.SwPos, p.Pos, p.Index
}

// Summary describes a trace container without replaying it.
type Summary struct {
	ProgHash  uint64
	Stats     Stats
	SwitchNYP struct{ Min, Max, Sum uint64 } // nyp distribution
}

// Summarize walks both streams of an encoded trace of either container
// kind and reports event counts, byte breakdowns, and the
// preemption-interval distribution. TotalBytes is the container size. The
// program hash is not checked (pass what NewReader would).
func Summarize(raw []byte) (*Summary, error) {
	h, r, err := decodeContainer(raw)
	if err != nil {
		return nil, err
	}
	s := &Summary{ProgHash: h}
	s.Stats = Stats{Events: map[Kind]int{}, BytesByKind: map[Kind]int{}, TotalBytes: len(raw)}
	s.SwitchNYP.Min = ^uint64(0)
	for {
		start := r.swPos
		nyp, ok := r.NextSwitch()
		if !ok {
			break
		}
		s.Stats.Events[EvSwitch]++
		s.Stats.BytesByKind[EvSwitch] += r.swPos - start
		if nyp < s.SwitchNYP.Min {
			s.SwitchNYP.Min = nyp
		}
		if nyp > s.SwitchNYP.Max {
			s.SwitchNYP.Max = nyp
		}
		s.SwitchNYP.Sum += nyp
	}
	if s.Stats.Events[EvSwitch] == 0 {
		s.SwitchNYP.Min = 0
	}
	for {
		k, err := r.Peek()
		if err != nil {
			return nil, err
		}
		start := r.pos
		switch k {
		case EvClock:
			if _, err := r.Clock(); err != nil {
				return nil, err
			}
		case EvNative:
			if err := r.expect(EvNative); err != nil {
				return nil, err
			}
			if _, err := r.uv(); err != nil {
				return nil, err
			}
			cnt, err := r.uv()
			if err != nil {
				return nil, err
			}
			for i := uint64(0); i < cnt; i++ {
				if _, err := r.sv(); err != nil {
					return nil, err
				}
			}
		case EvInput:
			if _, err := r.Input(); err != nil {
				return nil, err
			}
		case EvCallback:
			if _, _, err := r.Callback(); err != nil {
				return nil, err
			}
		case EvEnd:
			s.Stats.Events[EvEnd]++
			s.Stats.BytesByKind[EvEnd]++
			return s, nil
		default:
			return nil, fmt.Errorf("trace: unknown event kind %d", k)
		}
		s.Stats.Events[k]++
		s.Stats.BytesByKind[k] += r.pos - start
	}
}
