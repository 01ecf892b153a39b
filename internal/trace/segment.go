// Segmented trace journals ("DVSG"): a directory of DVS1 segment files
// rotated by size or event count, where every segment boundary carries a
// durable checkpoint and a CRC-protected manifest.
//
//	journal/
//	  MANIFEST          text manifest, rewritten atomically at every seal
//	  seg-000000.dvs    DVS1 container; sealed segments end with the end marker
//	  ckpt-000001.dvck  checkpoint seeding replay at the start of seg 1
//	  ...
//
// The rotation protocol orders durability so a crash at any point loses at
// most the segment being written:
//
//  1. seal the current segment (flush, end marker, fsync, close);
//  2. write the boundary checkpoint to a temp file, fsync, rename;
//  3. rewrite MANIFEST the same way (temp file + rename);
//  4. open the next segment.
//
// The manifest never references an unsealed segment, renames are atomic,
// and sealed files are never rewritten — so recovery trusts the manifest,
// rescans only the one segment past it (the unsealed tail), and salvages
// its longest valid prefix with the bounded scanner from recover.go.
package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"dejavu/internal/obs"
)

// FS is the filesystem surface a segmented journal runs on. DirFS maps it
// onto a real directory; the fault-injection tests substitute an in-memory
// implementation that can crash mid-operation.
type FS interface {
	Create(name string) (File, error)
	Open(name string) (io.ReadCloser, error)
	Rename(oldname, newname string) error
	List() ([]string, error) // base names, any order
	Remove(name string) error
}

// File is the writable handle FS.Create returns.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// DirFS is the production FS: a single real directory.
type DirFS struct{ dir string }

// NewDirFS creates (if needed) and wraps dir.
func NewDirFS(dir string) (*DirFS, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("trace: journal dir: %w", err)
	}
	return &DirFS{dir: dir}, nil
}

// Path returns the directory the FS is rooted at.
func (d *DirFS) Path() string { return d.dir }

// Sub creates (if needed) and wraps a directory nested under this one.
// Multi-tenant session stores use it to carve per-session journal
// directories out of one data root: <data-root>/sessions/<id>/journal.
func (d *DirFS) Sub(name string) (*DirFS, error) {
	return NewDirFS(filepath.Join(d.dir, name))
}

// Create implements FS.
func (d *DirFS) Create(name string) (File, error) { return os.Create(filepath.Join(d.dir, name)) }

// Open implements FS.
func (d *DirFS) Open(name string) (io.ReadCloser, error) { return os.Open(filepath.Join(d.dir, name)) }

// Rename implements FS.
func (d *DirFS) Rename(oldname, newname string) error {
	return os.Rename(filepath.Join(d.dir, oldname), filepath.Join(d.dir, newname))
}

// List implements FS.
func (d *DirFS) List() ([]string, error) {
	ents, err := os.ReadDir(d.dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// Remove implements FS.
func (d *DirFS) Remove(name string) error { return os.Remove(filepath.Join(d.dir, name)) }

// Journal file naming.
const manifestName = "MANIFEST"

// SegmentFileName returns the base name of segment index i.
func SegmentFileName(i int) string { return fmt.Sprintf("seg-%06d.dvs", i) }

// CheckpointFileName returns the base name of the checkpoint that seeds
// replay at the start of segment index i.
func CheckpointFileName(i int) string { return fmt.Sprintf("ckpt-%06d.dvck", i) }

// SegmentInfo is one sealed segment's manifest entry.
type SegmentInfo struct {
	Index    int
	Name     string
	Events   int   // data events logged into this segment
	Switches int   // switch entries logged into this segment
	Bytes    int64 // sealed container size
}

// CheckpointInfo is one durable checkpoint's manifest entry.
type CheckpointInfo struct {
	Index    int // segment this checkpoint seeds (replay starts at its first byte)
	Name     string
	VMEvents uint64 // instruction count at the segment boundary
}

// Manifest is the journal's CRC-protected table of contents. Complete is
// set only by SegmentWriter.Close — its absence means the recording was
// cut short and the segment past the listed ones is an unsealed tail.
//
// Origin marks a journal that does not start at instruction zero: a
// flight-recorder flush whose pre-window history was evicted. Replay of an
// origin>0 journal must seed from a checkpoint at or after Origin — its
// segment 0 is a synthetic empty placeholder, and a from-zero replay would
// silently diverge from the recorded execution.
type Manifest struct {
	ProgHash    uint64
	Origin      uint64 // first instruction the journal can replay (0 = from the start)
	Complete    bool
	Segments    []SegmentInfo
	Checkpoints []CheckpointInfo
}

const manifestMagic = "DVSG1"

// Encode renders the manifest in its durable text form, ending with a
// CRC32C line over everything before it.
func (m *Manifest) Encode() []byte { return m.appendTo(nil) }

// appendTo appends the manifest's durable text form to buf:
//
//	DVSG1 <prog hash, 16 hex digits>
//	origin <first replayable instruction>      (only when Origin > 0)
//	seg <index> <name> <events> <switches> <bytes>
//	ckpt <index> <name> <vm events>
//	complete                                    (only when Complete)
//	crc <CRC32C of the lines above, 8 hex digits>
func (m *Manifest) appendTo(buf []byte) []byte {
	start := len(buf)
	buf = append(buf, manifestMagic+" "...)
	buf = appendHex(buf, m.ProgHash, 16)
	buf = append(buf, '\n')
	if m.Origin > 0 {
		buf = append(buf, "origin "...)
		buf = strconv.AppendUint(buf, m.Origin, 10)
		buf = append(buf, '\n')
	}
	for _, s := range m.Segments {
		buf = append(buf, "seg "...)
		buf = strconv.AppendInt(buf, int64(s.Index), 10)
		buf = append(buf, ' ')
		buf = append(buf, s.Name...)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(s.Events), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(s.Switches), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, s.Bytes, 10)
		buf = append(buf, '\n')
	}
	for _, c := range m.Checkpoints {
		buf = append(buf, "ckpt "...)
		buf = strconv.AppendInt(buf, int64(c.Index), 10)
		buf = append(buf, ' ')
		buf = append(buf, c.Name...)
		buf = append(buf, ' ')
		buf = strconv.AppendUint(buf, c.VMEvents, 10)
		buf = append(buf, '\n')
	}
	if m.Complete {
		buf = append(buf, "complete\n"...)
	}
	sum := crc32.Checksum(buf[start:], castagnoli)
	buf = append(buf, "crc "...)
	buf = appendHex(buf, uint64(sum), 8)
	return append(buf, '\n')
}

// appendHex appends v in lower-case hex, zero-padded to width digits
// (fmt's %0<width>x).
func appendHex(buf []byte, v uint64, width int) []byte {
	var digits [16]byte
	d := strconv.AppendUint(digits[:0], v, 16)
	for i := len(d); i < width; i++ {
		buf = append(buf, '0')
	}
	return append(buf, d...)
}

// ErrManifest reports a manifest that does not parse or whose CRC does not
// match its contents.
var ErrManifest = errors.New("trace: corrupt journal manifest")

// ParseManifest parses and validates an encoded manifest: CRC, magic,
// consecutively indexed segments, in-range checkpoints, and file names that
// stay inside the journal directory.
func ParseManifest(data []byte) (*Manifest, error) {
	crcAt := bytes.LastIndex(data, []byte("\ncrc "))
	if crcAt < 0 {
		return nil, fmt.Errorf("%w: missing crc line", ErrManifest)
	}
	body := data[:crcAt+1]
	crcLine := strings.TrimSuffix(string(data[crcAt+1:]), "\n")
	f := strings.Fields(crcLine)
	if len(f) != 2 || f[0] != "crc" {
		return nil, fmt.Errorf("%w: malformed crc line", ErrManifest)
	}
	want, err := strconv.ParseUint(f[1], 16, 32)
	if err != nil {
		return nil, fmt.Errorf("%w: malformed crc value", ErrManifest)
	}
	if crc32.Checksum(body, castagnoli) != uint32(want) {
		return nil, fmt.Errorf("%w: crc mismatch", ErrManifest)
	}

	m := &Manifest{}
	lines := strings.Split(strings.TrimSuffix(string(body), "\n"), "\n")
	if len(lines) == 0 {
		return nil, fmt.Errorf("%w: empty", ErrManifest)
	}
	hdr := strings.Fields(lines[0])
	if len(hdr) != 2 || hdr[0] != manifestMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrManifest)
	}
	if m.ProgHash, err = strconv.ParseUint(hdr[1], 16, 64); err != nil {
		return nil, fmt.Errorf("%w: bad program hash", ErrManifest)
	}
	num := func(s string) (int64, error) {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil || v < 0 {
			return 0, fmt.Errorf("%w: bad number %q", ErrManifest, s)
		}
		return v, nil
	}
	name := func(s string) (string, error) {
		if s == "" || s != filepath.Base(s) || strings.HasPrefix(s, ".") {
			return "", fmt.Errorf("%w: unsafe file name %q", ErrManifest, s)
		}
		return s, nil
	}
	for _, line := range lines[1:] {
		f := strings.Fields(line)
		if len(f) == 0 {
			return nil, fmt.Errorf("%w: blank line", ErrManifest)
		}
		switch f[0] {
		case "seg":
			if len(f) != 6 {
				return nil, fmt.Errorf("%w: malformed seg line", ErrManifest)
			}
			var s SegmentInfo
			var v int64
			if v, err = num(f[1]); err != nil {
				return nil, err
			}
			s.Index = int(v)
			if s.Name, err = name(f[2]); err != nil {
				return nil, err
			}
			if v, err = num(f[3]); err != nil {
				return nil, err
			}
			s.Events = int(v)
			if v, err = num(f[4]); err != nil {
				return nil, err
			}
			s.Switches = int(v)
			if s.Bytes, err = num(f[5]); err != nil {
				return nil, err
			}
			if s.Index != len(m.Segments) {
				return nil, fmt.Errorf("%w: segment %d out of order", ErrManifest, s.Index)
			}
			m.Segments = append(m.Segments, s)
		case "ckpt":
			if len(f) != 4 {
				return nil, fmt.Errorf("%w: malformed ckpt line", ErrManifest)
			}
			var c CheckpointInfo
			var v int64
			if v, err = num(f[1]); err != nil {
				return nil, err
			}
			c.Index = int(v)
			if c.Name, err = name(f[2]); err != nil {
				return nil, err
			}
			if v, err = num(f[3]); err != nil {
				return nil, err
			}
			c.VMEvents = uint64(v)
			if c.Index < 1 || c.Index > len(m.Segments) {
				return nil, fmt.Errorf("%w: checkpoint %d without its preceding segments", ErrManifest, c.Index)
			}
			if n := len(m.Checkpoints); n > 0 && c.Index <= m.Checkpoints[n-1].Index {
				return nil, fmt.Errorf("%w: checkpoint %d out of order", ErrManifest, c.Index)
			}
			m.Checkpoints = append(m.Checkpoints, c)
		case "origin":
			if len(f) != 2 {
				return nil, fmt.Errorf("%w: malformed origin line", ErrManifest)
			}
			var v int64
			if v, err = num(f[1]); err != nil {
				return nil, err
			}
			m.Origin = uint64(v)
		case "complete":
			if len(f) != 1 {
				return nil, fmt.Errorf("%w: malformed complete line", ErrManifest)
			}
			m.Complete = true
		default:
			return nil, fmt.Errorf("%w: unknown directive %q", ErrManifest, f[0])
		}
	}
	return m, nil
}

// Checkpoint is a durable segment-boundary checkpoint: the opaque VM/heap/
// threads snapshot plus the record-side engine position needed to align a
// fresh replay engine with the middle of a switch interval. BoundaryNYP is
// the number of yield points the recording had executed toward its next
// (not yet recorded) switch; a seeded replay subtracts it from the first
// switch value it prefetches from the segment.
type Checkpoint struct {
	Index       int    // segment this checkpoint seeds
	VMEvents    uint64 // instruction count at the boundary
	BoundaryNYP uint64 // record-mode yields since the last recorded switch
	State       []byte // opaque VM checkpoint (vm.VM.AppendCheckpoint bytes)
}

const checkpointFileMagic = "DVSC"

// EncodeCheckpoint renders the checkpoint file: magic, program hash, the
// three positions, the opaque state, and a trailing CRC32C.
func EncodeCheckpoint(progHash uint64, c Checkpoint) []byte {
	return appendCheckpointFile(make([]byte, 0, len(c.State)+64), progHash, c)
}

// appendCheckpointFile appends c's checkpoint file (EncodeCheckpoint's
// bytes) to buf.
func appendCheckpointFile(buf []byte, progHash uint64, c Checkpoint) []byte {
	start := len(buf)
	buf = append(buf, checkpointFileMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, progHash)
	buf = binary.AppendUvarint(buf, uint64(c.Index))
	buf = binary.AppendUvarint(buf, c.VMEvents)
	buf = binary.AppendUvarint(buf, c.BoundaryNYP)
	buf = binary.AppendUvarint(buf, uint64(len(c.State)))
	buf = append(buf, c.State...)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf[start:], castagnoli))
}

// ErrCheckpoint reports an unreadable (torn, bit-flipped, or mismatched)
// checkpoint file. A journal with a bad checkpoint is still fully
// replayable from zero or from any earlier checkpoint.
var ErrCheckpoint = errors.New("trace: corrupt journal checkpoint")

// DecodeCheckpoint parses and verifies a checkpoint file against progHash.
// The returned State aliases data.
func DecodeCheckpoint(data []byte, progHash uint64) (Checkpoint, error) {
	var c Checkpoint
	if len(data) < len(checkpointFileMagic)+8+4 || string(data[:4]) != checkpointFileMagic {
		return c, fmt.Errorf("%w: bad magic", ErrCheckpoint)
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(tail) {
		return c, fmt.Errorf("%w: crc mismatch", ErrCheckpoint)
	}
	if h := binary.LittleEndian.Uint64(body[4:12]); h != progHash {
		return c, fmt.Errorf("%w: program hash mismatch (checkpoint %x, journal %x)", ErrCheckpoint, h, progHash)
	}
	rest := body[12:]
	uv := func() (uint64, bool) {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return 0, false
		}
		rest = rest[n:]
		return v, true
	}
	idx, ok1 := uv()
	vme, ok2 := uv()
	nyp, ok3 := uv()
	sl, ok4 := uv()
	if !ok1 || !ok2 || !ok3 || !ok4 || sl != uint64(len(rest)) {
		return c, fmt.Errorf("%w: truncated header", ErrCheckpoint)
	}
	c.Index = int(idx)
	c.VMEvents = vme
	c.BoundaryNYP = nyp
	c.State = rest[:len(rest):len(rest)]
	return c, nil
}

// SegmentOptions configures a SegmentWriter.
type SegmentOptions struct {
	StreamOptions       // per-segment chunking and sync policy
	RotateEvents  int   // request rotation once a segment holds this many logged events (0 = no event policy)
	RotateBytes   int64 // request rotation once a segment exceeds this many container bytes (0 = no byte policy)

	// MaxJournalBytes caps the journal's total sealed size (0 = unlimited).
	// The cap is enforced at rotation time — the cheapest point where total
	// size is known exactly: the boundary segment still seals durably (with
	// its checkpoint and manifest), then Rotate refuses to open the next
	// segment with an error wrapping ErrJournalQuota. The journal on disk
	// stays valid and replayable up to the refusal point.
	MaxJournalBytes int64
}

// ErrJournalQuota reports a recording stopped because the journal reached
// its configured MaxJournalBytes. Everything sealed before the refusal is
// intact; the session layer maps this to a structured "quota" refusal.
var ErrJournalQuota = errors.New("trace: journal byte quota exceeded")

// SegmentWriter is a Sink recording into a segmented journal. It buffers
// and frames exactly like StreamWriter per segment; rotation is *driven by
// the VM* (which owns the checkpoint state): the writer only reports
// RotatePending, and the VM answers with Rotate(checkpoint). Sealing and
// every manifest/checkpoint write are atomic and fsynced, independent of
// the per-chunk sync policy, so a sealed segment is durable by the time
// the next one opens.
type SegmentWriter struct {
	fs       FS
	progHash uint64
	opts     SegmentOptions

	cur     *StreamWriter
	curFile File
	index   int // current (unsealed) segment index
	segEv   int // events logged into the current segment

	man    Manifest
	agg    Stats // sealed segments' aggregated stats
	closed bool
	err    error
	m      segmentMetrics

	// fileBuf holds the checkpoint or manifest file being written; every
	// rotation reuses it, and Close drops it.
	fileBuf []byte
}

// segmentMetrics holds the journal writer's obs series; all nil-safe
// no-ops when StreamOptions.Obs is unset.
type segmentMetrics struct {
	seals     *obs.Counter // segments sealed durably
	rotations *obs.Counter // completed rotations (seal + checkpoint + reopen)
	ckWrites  *obs.Counter // checkpoint files written
	ckBytes   *obs.Counter // checkpoint bytes written (encoded VM state)
}

// NewSegmentWriter opens segment 0 of a fresh journal on fs.
func NewSegmentWriter(fs FS, progHash uint64, opts SegmentOptions) (*SegmentWriter, error) {
	s := &SegmentWriter{fs: fs, progHash: progHash, opts: opts}
	s.m = segmentMetrics{
		seals:     opts.Obs.Counter("dv_journal_segments_sealed_total"),
		rotations: opts.Obs.Counter("dv_journal_rotations_total"),
		ckWrites:  opts.Obs.Counter("dv_journal_checkpoint_writes_total"),
		ckBytes:   opts.Obs.Counter("dv_journal_checkpoint_bytes_total"),
	}
	s.man.ProgHash = progHash
	s.agg = Stats{Events: map[Kind]int{}, BytesByKind: map[Kind]int{}}
	if err := s.openSegment(0); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *SegmentWriter) openSegment(i int) error {
	f, err := s.fs.Create(SegmentFileName(i))
	if err != nil {
		return fmt.Errorf("trace: journal segment %d: %w", i, err)
	}
	w, err := NewStreamWriter(f, s.progHash, s.opts.StreamOptions)
	if err != nil {
		f.Close()
		return err
	}
	s.curFile, s.cur, s.index, s.segEv = f, w, i, 0
	return nil
}

func (s *SegmentWriter) setErr(err error) {
	if s.err == nil && err != nil {
		s.err = err
	}
}

// Sink implementation: delegate to the current segment's StreamWriter and
// count events toward the rotation policy. After a failed rotation (quota
// refusal, segment-open error) no segment is open: s.cur is nil, the sticky
// error records the fault, and events are dropped instead of panicking —
// the recording VM is already unwinding with the rotation error, but the
// engine's unconditional End() still lands here.
func (s *SegmentWriter) logged() { s.segEv++ }

// Switch implements Sink.
func (s *SegmentWriter) Switch(nyp uint64) {
	if s.cur == nil {
		return
	}
	s.cur.Switch(nyp)
	s.logged()
}

// Clock implements Sink.
func (s *SegmentWriter) Clock(v int64) {
	if s.cur == nil {
		return
	}
	s.cur.Clock(v)
	s.logged()
}

// Native implements Sink.
func (s *SegmentWriter) Native(id int, vals []int64) {
	if s.cur == nil {
		return
	}
	s.cur.Native(id, vals)
	s.logged()
}

// Input implements Sink.
func (s *SegmentWriter) Input(b []byte) {
	if s.cur == nil {
		return
	}
	s.cur.Input(b)
	s.logged()
}

// Callback implements Sink.
func (s *SegmentWriter) Callback(cb int, params []int64) {
	if s.cur == nil {
		return
	}
	s.cur.Callback(cb, params)
	s.logged()
}

// End implements Sink (the data-stream end event; Close seals the journal).
func (s *SegmentWriter) End() {
	if s.cur == nil {
		return
	}
	s.cur.End()
}

// Stats implements Sink: totals across sealed segments plus the current one.
func (s *SegmentWriter) Stats() Stats {
	out := Stats{Events: map[Kind]int{}, BytesByKind: map[Kind]int{}}
	out.Add(s.agg)
	if s.cur != nil {
		out.Add(s.cur.Stats())
	}
	return out
}

// RotatePending reports whether a rotation policy threshold has been
// crossed. The caller (the recording VM) answers with Rotate at its next
// safe point — an instruction boundary, where a snapshot is well-defined.
func (s *SegmentWriter) RotatePending() bool {
	if s.err != nil || s.closed {
		return false
	}
	if s.opts.RotateEvents > 0 && s.segEv >= s.opts.RotateEvents {
		return true
	}
	if s.opts.RotateBytes > 0 && int64(s.cur.Stats().TotalBytes) >= s.opts.RotateBytes {
		return true
	}
	return false
}

// seal finishes the current segment durably and folds it into the manifest.
func (s *SegmentWriter) seal() {
	s.setErr(s.cur.Close())
	st := s.cur.Stats()
	s.setErr(s.curFile.Sync())
	s.setErr(s.curFile.Close())
	s.agg.Add(st)
	events := 0
	for k, v := range st.Events {
		if k != EvSwitch {
			events += v
		}
	}
	s.man.Segments = append(s.man.Segments, SegmentInfo{
		Index:    s.index,
		Name:     SegmentFileName(s.index),
		Events:   events,
		Switches: st.Events[EvSwitch],
		Bytes:    int64(st.TotalBytes),
	})
	s.cur, s.curFile = nil, nil
	if s.err == nil {
		s.m.seals.Inc()
	}
}

// writeAtomic writes name via a temp file, fsync, and rename.
func (s *SegmentWriter) writeAtomic(name string, data []byte) {
	if s.err != nil {
		return
	}
	tmp := name + ".tmp"
	f, err := s.fs.Create(tmp)
	if err != nil {
		s.setErr(err)
		return
	}
	if _, err := f.Write(data); err != nil {
		s.setErr(err)
		f.Close()
		return
	}
	s.setErr(f.Sync())
	s.setErr(f.Close())
	if s.err == nil {
		s.setErr(s.fs.Rename(tmp, name))
	}
}

// Rotate seals the current segment, writes the boundary checkpoint and the
// updated manifest atomically, and opens the next segment. state is the
// opaque VM checkpoint at the boundary (taken at an instruction boundary,
// before the next instruction executes); vmEvents and boundaryNYP position
// it. Rotate matches the vm.JournalSink surface: it frames state into the
// checkpoint file in a buffer of its own and keeps no reference to it.
func (s *SegmentWriter) Rotate(state []byte, vmEvents, boundaryNYP uint64) error {
	if s.closed {
		return errors.New("trace: journal already closed")
	}
	if s.err != nil {
		return s.err
	}
	s.seal()
	next := s.index + 1
	ck := Checkpoint{Index: next, VMEvents: vmEvents, BoundaryNYP: boundaryNYP, State: state}
	if need := len(state) + 64; cap(s.fileBuf) < need {
		s.fileBuf = make([]byte, 0, 2*need) // room for a state that grows
	}
	s.fileBuf = appendCheckpointFile(s.fileBuf[:0], s.progHash, ck)
	s.writeAtomic(CheckpointFileName(next), s.fileBuf)
	if s.err == nil {
		s.man.Checkpoints = append(s.man.Checkpoints, CheckpointInfo{
			Index: next, Name: CheckpointFileName(next), VMEvents: vmEvents,
		})
		s.m.ckWrites.Inc()
		s.m.ckBytes.Add(uint64(len(state)))
	}
	s.writeManifest()
	if s.err == nil && s.opts.MaxJournalBytes > 0 && int64(s.agg.TotalBytes) >= s.opts.MaxJournalBytes {
		s.setErr(fmt.Errorf("journal holds %d sealed bytes, quota %d: %w",
			s.agg.TotalBytes, s.opts.MaxJournalBytes, ErrJournalQuota))
		return s.err
	}
	if s.err == nil {
		s.setErr(s.openSegment(next))
	}
	if s.err == nil {
		s.m.rotations.Inc()
	}
	return s.err
}

// Close seals the final segment and writes the completing manifest. It is
// idempotent and returns the first sticky error.
func (s *SegmentWriter) Close() error {
	if s.closed {
		return s.err
	}
	s.closed = true
	if s.cur != nil {
		s.seal()
	}
	s.man.Complete = s.err == nil
	s.writeManifest()
	s.fileBuf = nil
	return s.err
}

// writeManifest encodes the manifest into fileBuf and writes it atomically.
func (s *SegmentWriter) writeManifest() {
	s.fileBuf = s.man.appendTo(s.fileBuf[:0])
	s.writeAtomic(manifestName, s.fileBuf)
}

// Err returns the sticky write error.
func (s *SegmentWriter) Err() error { return s.err }

// SegmentIndex returns the index of the segment currently being written.
func (s *SegmentWriter) SegmentIndex() int { return s.index }

// ManifestSnapshot returns a copy of the manifest as sealed so far.
func (s *SegmentWriter) ManifestSnapshot() Manifest {
	m := s.man
	m.Segments = append([]SegmentInfo(nil), s.man.Segments...)
	m.Checkpoints = append([]CheckpointInfo(nil), s.man.Checkpoints...)
	return m
}
