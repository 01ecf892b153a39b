// Streaming trace containers.
//
// The flat DVT2 container places the switch-stream length before the
// switch stream, so it cannot be emitted single-pass to a non-seekable
// sink. The streaming container ("DVS1") keeps the two streams chunked and
// interleaved instead:
//
//	magic "DVS1" | progHash (8 bytes LE)
//	chunk*       where chunk = tag (1 byte) | uvarint payload length |
//	              payload | crc32c (4 bytes LE, over tag+length+payload)
//	end chunk    (tag 0x13, zero-length payload, checksummed)
//
// Tags 0x11/0x12 carry switch-stream and data-stream bytes; any other tag
// is refused. Demultiplexing chunks in order reconstructs exactly the two
// streams a Writer would have buffered, so StreamReader.Load yields the
// same Reader NewReader builds from the flat container. Chunks always
// split at event boundaries (the writer flushes whole buffered events),
// but the reader does not rely on that.
//
// The per-chunk CRC32C makes the container a verifiable journal: a torn
// tail or flipped bit is detected at the first damaged chunk, and
// RecoverStream salvages the longest valid prefix.
package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"dejavu/internal/obs"
)

const streamMagic = "DVS1"

// streamHeaderLen is the container header: magic plus the program hash.
const streamHeaderLen = len(streamMagic) + 8

// Chunk tags. Every chunk carries a trailing CRC32C over tag, length, and
// payload.
const (
	chunkSwitch byte = 0x11
	chunkData   byte = 0x12
	chunkEnd    byte = 0x13
)

// castagnoli is the CRC32C polynomial table shared by the writer, the
// reader, and RecoverStream.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrChecksum reports a chunk whose stored CRC32C does not match its
// contents — a flipped bit or a torn write inside the chunk.
var ErrChecksum = errors.New("trace: chunk checksum mismatch")

// DefaultChunkBytes is the flush threshold for StreamWriter buffers.
const DefaultChunkBytes = 1 << 15

// SyncPolicy selects how aggressively a StreamWriter pushes recorded
// chunks to stable storage when the underlying sink supports it (anything
// with a Sync() error method, e.g. *os.File). More durable is slower; the
// trade is how much of a recording survives a crash.
type SyncPolicy uint8

const (
	// SyncNone never syncs: chunks reach the OS when buffers flush, disk
	// whenever the page cache drains. A crash can lose everything since
	// the last kernel writeback.
	SyncNone SyncPolicy = iota
	// SyncChunk syncs after every flushed chunk: a crash loses at most the
	// partially-buffered chunk, which RecoverStream trims away.
	SyncChunk
	// SyncEvent flushes and syncs after every logged event: a crash loses
	// at most the event being written. Every event becomes its own chunk,
	// so traces grow and recording slows; reserve it for hunting the crash
	// itself.
	SyncEvent
)

var syncNames = [...]string{"none", "chunk", "event"}

func (p SyncPolicy) String() string {
	if int(p) < len(syncNames) {
		return syncNames[p]
	}
	return fmt.Sprintf("sync(%d)", uint8(p))
}

// ParseSyncPolicy maps the -sync flag spellings to a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	for i, n := range syncNames {
		if s == n {
			return SyncPolicy(i), nil
		}
	}
	return SyncNone, fmt.Errorf("trace: unknown sync policy %q (have none, chunk, event)", s)
}

// StreamOptions configures a StreamWriter.
type StreamOptions struct {
	ChunkBytes int        // flush threshold; 0 selects DefaultChunkBytes
	Sync       SyncPolicy // durability policy (no-op if the sink can't Sync)

	// Obs, when set, receives the writer's operational metrics (chunks
	// flushed, container bytes, fsyncs by policy, events logged). Metrics
	// never enter the container bytes, so a trace recorded with metrics on
	// is byte-identical to one recorded with them off.
	Obs *obs.Registry
}

// IsStream reports whether b begins with the streaming-container magic.
func IsStream(b []byte) bool {
	return len(b) >= len(streamMagic) && string(b[:len(streamMagic)]) == streamMagic
}

// syncer is the optional durability surface of a sink; *os.File has it.
type syncer interface{ Sync() error }

// StreamWriter encodes a trace incrementally to any io.Writer, so record
// mode never holds the whole trace in memory. It logs the same events as
// Writer (both implement Sink) and emits identical stream bytes; only the
// container framing differs. Close flushes the final chunks and the end
// marker; the caller owns closing the underlying sink.
//
// All write, short-write, and sync failures are sticky: the first one is
// kept, later operations become no-ops, and both Err and Close report it.
type StreamWriter struct {
	dst      io.Writer
	fsync    syncer // dst's Sync method, when it has one
	log      eventLog
	chunk    int
	sync     SyncPolicy
	written  int
	closed   bool
	err      error
	progHash uint64
	m        streamWriterMetrics
}

// streamWriterMetrics holds the writer's obs series; all nil-safe no-ops
// when StreamOptions.Obs is unset.
type streamWriterMetrics struct {
	chunks *obs.Counter // chunks flushed to the sink
	bytes  *obs.Counter // container bytes written
	fsyncs *obs.Counter // Sync calls issued (labeled by policy)
	events *obs.Counter // events logged
}

// NewStreamWriter starts a streaming trace for progHash on dst, writing
// the container header immediately.
func NewStreamWriter(dst io.Writer, progHash uint64, o StreamOptions) (*StreamWriter, error) {
	if o.ChunkBytes < 1 {
		o.ChunkBytes = DefaultChunkBytes
	}
	s := &StreamWriter{dst: dst, log: newEventLog(), chunk: o.ChunkBytes, sync: o.Sync, progHash: progHash}
	s.fsync, _ = dst.(syncer)
	s.m = streamWriterMetrics{
		chunks: o.Obs.Counter("dv_trace_chunks_flushed_total"),
		bytes:  o.Obs.Counter("dv_trace_bytes_written_total"),
		fsyncs: o.Obs.Counter(obs.Label("dv_trace_fsyncs_total", "policy", o.Sync.String())),
		events: o.Obs.Counter("dv_trace_events_total"),
	}
	if !writeStreamHeader(s.write, progHash) {
		return nil, fmt.Errorf("trace: stream header: %w", s.err)
	}
	return s, nil
}

// Switch logs a preemptive thread switch after nyp yield points.
func (s *StreamWriter) Switch(nyp uint64) { s.log.logSwitch(nyp); s.afterEvent() }

// Clock logs one wall-clock value.
func (s *StreamWriter) Clock(v int64) { s.log.logClock(v); s.afterEvent() }

// Native logs the result words of non-deterministic native call id.
func (s *StreamWriter) Native(id int, vals []int64) { s.log.logNative(id, vals); s.afterEvent() }

// Input logs environment bytes.
func (s *StreamWriter) Input(b []byte) { s.log.logInput(b); s.afterEvent() }

// Callback logs one native-to-VM callback.
func (s *StreamWriter) Callback(cb int, params []int64) {
	s.log.logCallback(cb, params)
	s.afterEvent()
}

// End finalizes the data stream (the event, not the container — Close
// writes the container's end marker). The durability policy applies like
// any other event: under SyncEvent the EvEnd reaches stable storage even
// if the process dies before Close.
func (s *StreamWriter) End() { s.log.logEnd(); s.afterEvent() }

// afterEvent applies the durability policy to the event just logged.
func (s *StreamWriter) afterEvent() {
	s.m.events.Inc()
	if s.sync == SyncEvent {
		s.flushChunk(chunkSwitch, &s.log.sw)
		s.flushChunk(chunkData, &s.log.data)
		s.syncNow()
		return
	}
	s.maybeFlush()
}

// maybeFlush emits full chunks. Pending switch bytes flush first so the
// reader sees a switch count no later than data recorded after it — the
// replay prefetch pattern then buffers at most about one chunk ahead.
func (s *StreamWriter) maybeFlush() {
	flushed := false
	if s.log.data.Len() >= s.chunk {
		s.flushChunk(chunkSwitch, &s.log.sw)
		s.flushChunk(chunkData, &s.log.data)
		flushed = true
	} else if s.log.sw.Len() >= s.chunk {
		s.flushChunk(chunkSwitch, &s.log.sw)
		flushed = true
	}
	if flushed && s.sync == SyncChunk {
		s.syncNow()
	}
}

// write pushes p to the sink, detecting short writes and keeping the first
// failure sticky. Reports whether the write fully succeeded.
func (s *StreamWriter) write(p []byte) bool {
	if s.err != nil {
		return false
	}
	n, err := s.dst.Write(p)
	if err == nil && n < len(p) {
		err = io.ErrShortWrite
	}
	if err != nil {
		s.setErr(fmt.Errorf("trace: stream write: %w", err))
		return false
	}
	s.written += n
	s.m.bytes.Add(uint64(n))
	return true
}

// setErr records the first failure; later ones never shadow it.
func (s *StreamWriter) setErr(err error) {
	if s.err == nil {
		s.err = err
	}
}

// syncNow pushes written chunks to stable storage when the sink can.
func (s *StreamWriter) syncNow() {
	if s.err != nil || s.fsync == nil {
		return
	}
	if err := s.fsync.Sync(); err != nil {
		s.setErr(fmt.Errorf("trace: stream sync: %w", err))
		return
	}
	s.m.fsyncs.Inc()
}

// flushChunk emits buf as one chunk frame.
func (s *StreamWriter) flushChunk(tag byte, buf *bytes.Buffer) {
	if s.err == nil && buf.Len() > 0 && writeFrame(s.write, tag, buf.Bytes()) {
		s.m.chunks.Inc()
	}
	buf.Reset()
}

// Close flushes the remaining chunks, the checksummed end marker, and (for
// any policy but SyncNone) syncs the sink. It is idempotent and returns
// the first write, short-write, or sync error.
func (s *StreamWriter) Close() error {
	if s.closed {
		return s.err
	}
	s.closed = true
	s.flushChunk(chunkSwitch, &s.log.sw)
	s.flushChunk(chunkData, &s.log.data)
	if s.err == nil {
		writeFrame(s.write, chunkEnd, nil)
	}
	if s.sync != SyncNone {
		s.syncNow()
	}
	return s.err
}

// Err returns the sticky write error.
func (s *StreamWriter) Err() error { return s.err }

// Stats returns event counts and sizes. TotalBytes counts container bytes
// written so far (final once Close has run).
func (s *StreamWriter) Stats() Stats {
	s.log.stats.TotalBytes = s.written + s.log.sw.Len() + s.log.data.Len()
	return s.log.stats
}

// writeStreamHeader writes the DVS1 container header through write.
func writeStreamHeader(write func([]byte) bool, progHash uint64) bool {
	var hdr [streamHeaderLen]byte
	copy(hdr[:], streamMagic)
	binary.LittleEndian.PutUint64(hdr[len(streamMagic):], progHash)
	return write(hdr[:])
}

// writeFrame writes one chunk frame — tag, uvarint length, payload, CRC32C
// over all three — through write, passing the payload on without copying
// it. StreamWriter and RecoverStream both frame through it.
func writeFrame(write func([]byte) bool, tag byte, payload []byte) bool {
	var hdr [1 + binary.MaxVarintLen64]byte
	hdr[0] = tag
	n := 1 + binary.PutUvarint(hdr[1:], uint64(len(payload)))
	sum := crc32.Update(crc32.Update(0, castagnoli, hdr[:n]), castagnoli, payload)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], sum)
	return write(hdr[:n]) && (len(payload) == 0 || write(payload)) && write(crc[:])
}

// readStreamHeader consumes and validates the DVS1 container header,
// returning its program hash. Every DVS1 reader opens through it.
func readStreamHeader(r io.Reader) (uint64, error) {
	var hdr [streamHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil || !IsStream(hdr[:]) {
		return 0, errors.New("trace: bad stream magic")
	}
	return binary.LittleEndian.Uint64(hdr[len(streamMagic):]), nil
}

// streamChunk is one chunk frame: its tag, payload, and the container
// bytes the frame occupied.
type streamChunk struct {
	tag        byte
	payload    []byte
	frameBytes int64
}

// readChunk parses and checksums one chunk frame. It returns io.EOF when
// the container ends exactly at a frame boundary with no end marker (a
// torn tail), and wraps io.ErrUnexpectedEOF for mid-frame truncation.
func readChunk(br *bufio.Reader) (streamChunk, error) {
	tag, err := br.ReadByte()
	if err != nil {
		return streamChunk{}, io.EOF
	}
	c := streamChunk{tag: tag, frameBytes: 1}
	if tag < chunkSwitch || tag > chunkEnd {
		return c, fmt.Errorf("trace: unknown stream chunk tag %#x", tag)
	}
	ln, lnRaw, err := readUvarintRaw(br)
	if err != nil {
		return c, fmt.Errorf("trace: stream chunk header truncated: %w", io.ErrUnexpectedEOF)
	}
	c.frameBytes += int64(len(lnRaw))
	if ln > 1<<56 {
		return c, fmt.Errorf("trace: stream chunk length %d corrupt", ln)
	}
	var buf bytes.Buffer
	if _, err := io.CopyN(&buf, br, int64(ln)); err != nil {
		return c, fmt.Errorf("trace: stream chunk truncated: %w", io.ErrUnexpectedEOF)
	}
	c.frameBytes += int64(ln)
	c.payload = buf.Bytes()
	var stored [4]byte
	if _, err := io.ReadFull(br, stored[:]); err != nil {
		return c, fmt.Errorf("trace: stream chunk checksum truncated: %w", io.ErrUnexpectedEOF)
	}
	c.frameBytes += 4
	sum := crc32.Update(0, castagnoli, []byte{tag})
	sum = crc32.Update(sum, castagnoli, lnRaw)
	sum = crc32.Update(sum, castagnoli, c.payload)
	if sum != binary.LittleEndian.Uint32(stored[:]) {
		return c, fmt.Errorf("trace: chunk tag %#x (%d bytes): %w", tag, ln, ErrChecksum)
	}
	return c, nil
}

// readUvarintRaw is binary.ReadUvarint keeping the consumed bytes, which
// the checksum covers.
func readUvarintRaw(br *bufio.Reader) (uint64, []byte, error) {
	var raw []byte
	var v uint64
	var shift uint
	for i := 0; ; i++ {
		b, err := br.ReadByte()
		if err != nil {
			return 0, raw, err
		}
		raw = append(raw, b)
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				return 0, raw, errors.New("trace: uvarint overflow")
			}
			return v | uint64(b)<<shift, raw, nil
		}
		if i == binary.MaxVarintLen64-1 {
			return 0, raw, errors.New("trace: uvarint overflow")
		}
		v |= uint64(b&0x7f) << shift
		shift += 7
	}
}

// StreamReader replays a streaming container from any io.Reader,
// demultiplexing chunks on demand and verifying per-chunk checksums. It
// implements Source; unlike Reader it is not seekable, so engine
// snapshots (checkpointing) need the Reader that Load returns. Memory
// stays bounded by the chunk size plus one preemption interval of
// buffered data — except when the switch stream ends long before the data
// stream (e.g. a trace with no preemptions), where discovering the
// exhausted switch stream buffers the remaining data.
type StreamReader struct {
	src   *bufio.Reader
	inner Reader // demultiplexed, partially filled streams
	eof   bool   // end marker (or transport EOF) reached
	err   error  // sticky transport/framing error

	// next produces the following chunk. The default (set by
	// NewStreamReader) reads chunks from src; a segmented journal source
	// (Journal.Source) substitutes one that chains segment files.
	next func() (streamChunk, error)

	m streamReaderMetrics
}

// streamReaderMetrics holds the reader's obs series; all nil-safe no-ops
// until Instrument is called.
type streamReaderMetrics struct {
	chunks *obs.Counter // chunks read (every one CRC32C-checked)
	failed *obs.Counter // chunks rejected for a checksum mismatch
}

// Instrument attaches replay-side metrics: chunks read and CRC failures.
// Metrics never feed back into decoding, so an instrumented replay
// consumes byte-for-byte the same stream as a bare one.
func (s *StreamReader) Instrument(reg *obs.Registry) {
	s.m = streamReaderMetrics{
		chunks: reg.Counter("dv_trace_read_chunks_total"),
		failed: reg.Counter("dv_trace_crc_failed_total"),
	}
}

// NewStreamReader validates the streaming container header against
// progHash.
func NewStreamReader(r io.Reader, progHash uint64) (*StreamReader, error) {
	s, h, err := openStream(r)
	if err != nil {
		return nil, err
	}
	if h != progHash {
		return nil, hashMismatch(h, progHash)
	}
	return s, nil
}

// openStream reads the container header and returns a reader over the
// chunks that follow, plus the header's program hash.
func openStream(r io.Reader) (*StreamReader, uint64, error) {
	br := bufio.NewReader(r)
	h, err := readStreamHeader(br)
	if err != nil {
		return nil, 0, err
	}
	s := &StreamReader{src: br}
	s.next = func() (streamChunk, error) { return readChunk(s.src) }
	return s, h, nil
}

func hashMismatch(trace, prog uint64) error {
	return fmt.Errorf("trace: program hash mismatch: trace %x, program %x", trace, prog)
}

// Load drains the rest of the container and returns both streams as a
// seekable Reader, positioned where s stands. Any damage is an error (use
// RecoverStream to salvage).
func (s *StreamReader) Load() (*Reader, error) {
	for !s.eof {
		if err := s.fill(); err != nil {
			return nil, err
		}
	}
	r := s.inner
	return &r, nil
}

// fill reads one chunk into the demultiplexed streams; on the end marker
// it sets eof. Payload bytes are copied incrementally so a corrupt length
// cannot force a huge allocation.
func (s *StreamReader) fill() error {
	if s.err != nil {
		return s.err
	}
	c, err := s.next()
	if err != nil {
		if errors.Is(err, ErrChecksum) {
			s.m.failed.Inc()
		}
		if err == io.EOF {
			err = fmt.Errorf("trace: stream truncated before end marker: %w", io.ErrUnexpectedEOF)
		}
		s.err = err
		return s.err
	}
	s.m.chunks.Inc()
	switch c.tag {
	case chunkEnd:
		s.eof = true
	case chunkSwitch:
		s.inner.sw = append(s.inner.sw, c.payload...)
	case chunkData:
		s.inner.data = append(s.inner.data, c.payload...)
	}
	return nil
}

// compact drops consumed stream prefixes so long replays stay bounded.
// Only called at the top of a public consume operation, never between a
// saved position and its retry.
func (s *StreamReader) compact() {
	const keep = 1 << 16
	if s.inner.pos > keep {
		s.inner.data = append([]byte(nil), s.inner.data[s.inner.pos:]...)
		s.inner.pos = 0
	}
	if s.inner.swPos > 1<<12 {
		s.inner.sw = append([]byte(nil), s.inner.sw[s.inner.swPos:]...)
		s.inner.swPos = 0
	}
}

// retry runs one decode attempt against the buffered streams, pulling more
// chunks and re-running from the saved position whenever the attempt ran
// out of bytes before the container did.
func (s *StreamReader) retry(f func() error) error {
	if s.err != nil {
		return s.err
	}
	s.compact()
	for {
		p := s.inner.Pos()
		err := f()
		if err != nil && errors.Is(err, io.ErrUnexpectedEOF) && !s.eof {
			s.inner.Seek(p)
			if ferr := s.fill(); ferr != nil {
				return ferr
			}
			continue
		}
		return err
	}
}

// NextSwitch returns the next recorded nyp value, or ok=false once the
// container holds no further switches.
func (s *StreamReader) NextSwitch() (uint64, bool) {
	s.compact()
	for {
		if v, ok := s.inner.NextSwitch(); ok {
			return v, true
		}
		if s.eof || s.err != nil {
			return 0, false
		}
		if err := s.fill(); err != nil {
			return 0, false
		}
	}
}

// Peek returns the kind of the next data event without consuming it.
func (s *StreamReader) Peek() (Kind, error) {
	if s.err != nil {
		return 0, s.err
	}
	for {
		if k, err := s.inner.Peek(); err == nil {
			return k, nil
		}
		if s.eof {
			return s.inner.Peek()
		}
		if err := s.fill(); err != nil {
			return 0, err
		}
	}
}

// Clock consumes a clock event.
func (s *StreamReader) Clock() (int64, error) {
	var v int64
	err := s.retry(func() (e error) { v, e = s.inner.Clock(); return })
	return v, err
}

// Native consumes a native-result event, verifying the native id matches.
func (s *StreamReader) Native(id int) ([]int64, error) {
	var vals []int64
	err := s.retry(func() (e error) { vals, e = s.inner.Native(id); return })
	return vals, err
}

// Input consumes an input event.
func (s *StreamReader) Input() ([]byte, error) {
	var b []byte
	err := s.retry(func() (e error) { b, e = s.inner.Input(); return })
	return b, err
}

// Callback consumes a callback event.
func (s *StreamReader) Callback() (cb int, params []int64, err error) {
	err = s.retry(func() (e error) { cb, params, e = s.inner.Callback(); return })
	return cb, params, err
}

// AtEnd reports whether the next data event is EvEnd.
func (s *StreamReader) AtEnd() bool {
	k, err := s.Peek()
	return err == nil && k == EvEnd
}

// EventIndex returns how many data events have been consumed.
func (s *StreamReader) EventIndex() int { return s.inner.index }

// SwitchesRemaining reports whether unconsumed switch entries remain; it
// may read ahead to the end marker to decide.
func (s *StreamReader) SwitchesRemaining() bool {
	for {
		if s.inner.SwitchesRemaining() {
			return true
		}
		if s.eof || s.err != nil {
			return false
		}
		if err := s.fill(); err != nil {
			return false
		}
	}
}

// Err returns the sticky transport/framing error.
func (s *StreamReader) Err() error { return s.err }
