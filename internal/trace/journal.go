// Read side of segmented trace journals: open a DVSG directory, trust the
// manifest for sealed segments, salvage only the unsealed tail, and serve
// replay sources that start at segment boundaries (where checkpoints seed).
package trace

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// Journal is an opened segmented journal. Sealed segments (those the
// manifest lists) are trusted as written — their frames were fsynced
// before the manifest named them. The one segment past the manifest is the
// unsealed tail; unless the manifest is Complete it is salvaged with the
// bounded scanner and its longest valid prefix replays like the output of
// RecoverStream.
type Journal struct {
	fs       FS
	Manifest *Manifest

	// TailIndex is the index of the unsealed tail segment (equal to
	// len(Manifest.Segments)); TailReport is nil when the manifest is
	// Complete (no tail expected) or no tail file exists.
	TailIndex  int
	TailReport *RecoverReport

	tailSw   []byte // salvaged tail switch stream
	tailData []byte // salvaged tail data stream
}

// OpenJournal reads the manifest and salvages the tail. A missing manifest
// with at least one segment file present is treated as an empty manifest —
// the crash happened before the first seal, so everything is tail. A
// corrupt manifest is an error (sealed data may exist but cannot be
// trusted); a directory with neither manifest nor segment 0 is not a
// journal.
func OpenJournal(fs FS) (*Journal, error) {
	j := &Journal{fs: fs}
	names, err := fs.List()
	if err != nil {
		return nil, fmt.Errorf("trace: journal: %w", err)
	}
	have := make(map[string]bool, len(names))
	for _, n := range names {
		have[n] = true
	}

	if have[manifestName] {
		raw, err := readAll(fs, manifestName)
		if err != nil {
			return nil, fmt.Errorf("trace: journal manifest: %w", err)
		}
		if j.Manifest, err = ParseManifest(raw); err != nil {
			return nil, err
		}
	} else {
		if !have[SegmentFileName(0)] {
			return nil, errors.New("trace: not a journal (no manifest, no segment 0)")
		}
		j.Manifest = &Manifest{}
	}
	j.TailIndex = len(j.Manifest.Segments)

	// When the manifest carries no hash (pre-first-seal crash), pull it from
	// the tail segment's header during salvage below.
	if !j.Manifest.Complete && have[SegmentFileName(j.TailIndex)] {
		rc, err := fs.Open(SegmentFileName(j.TailIndex))
		if err != nil {
			return nil, fmt.Errorf("trace: journal tail: %w", err)
		}
		var sw, data swDataBuf
		rep, serr := salvageStream(rc, nil, sw.add, data.add)
		rc.Close()
		if serr != nil {
			// Tail header torn: nothing salvageable from it. With sealed
			// segments that is bounded loss, not a corrupt journal; with no
			// sealed segments and no manifest there is nothing at all.
			if len(j.Manifest.Segments) == 0 && !have[manifestName] {
				return nil, serr
			}
		} else {
			if len(j.Manifest.Segments) == 0 && !have[manifestName] {
				j.Manifest.ProgHash = rep.ProgHash
			}
			if rep.ProgHash != j.Manifest.ProgHash {
				return nil, fmt.Errorf("trace: journal tail %s: program hash mismatch (tail %x, manifest %x)",
					SegmentFileName(j.TailIndex), rep.ProgHash, j.Manifest.ProgHash)
			}
			j.TailReport = rep
			j.tailSw, j.tailData = sw.b, data.b
		}
	}
	return j, nil
}

type swDataBuf struct{ b []byte }

func (s *swDataBuf) add(p []byte) { s.b = append(s.b, p...) }

// readAll reads a whole journal file in one allocation when the file can
// tell its size up front (Stat) or hand over its bytes at once
// (io.WriterTo); io.ReadAll would grow its buffer by doubling.
func readAll(fs FS, name string) ([]byte, error) {
	rc, err := fs.Open(name)
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	switch f := rc.(type) {
	case interface{ Stat() (os.FileInfo, error) }:
		if fi, err := f.Stat(); err == nil && fi.Mode().IsRegular() {
			// The extra MinRead leaves room for the read that sees EOF.
			b := bytes.NewBuffer(make([]byte, 0, fi.Size()+bytes.MinRead))
			_, err := b.ReadFrom(rc)
			return b.Bytes(), err
		}
	case io.WriterTo:
		var b appendWriter
		_, err := f.WriteTo(&b)
		return b, err
	}
	return io.ReadAll(rc)
}

// appendWriter collects what an io.WriterTo hands it.
type appendWriter []byte

func (w *appendWriter) Write(p []byte) (int, error) {
	*w = append(*w, p...)
	return len(p), nil
}

// ProgHash returns the journal's program hash.
func (j *Journal) ProgHash() uint64 { return j.Manifest.ProgHash }

// Origin returns the first instruction this journal can replay. Zero for
// ordinary journals; positive for flight-recorder flushes, whose pre-window
// history was evicted and whose replay must seed from a checkpoint at or
// after this position.
func (j *Journal) Origin() uint64 { return j.Manifest.Origin }

// Complete reports whether the journal holds the full recording through
// its end event: either the manifest says the writer closed cleanly, or
// the salvaged tail reached the container end marker and the end event.
func (j *Journal) Complete() bool {
	if j.TailReport != nil {
		return j.TailReport.Complete && j.TailReport.EndEvent
	}
	return j.Manifest.Complete
}

// Events returns the total data events across sealed segments and the
// salvaged tail.
func (j *Journal) Events() int {
	n := 0
	for _, s := range j.Manifest.Segments {
		n += s.Events
	}
	if j.TailReport != nil {
		n += j.TailReport.Events
	}
	return n
}

// Segments returns how many segments hold replayable data: the sealed ones
// plus the salvaged tail (if any).
func (j *Journal) Segments() int {
	n := len(j.Manifest.Segments)
	if j.TailReport != nil {
		n++
	}
	return n
}

// String renders the one-line journal summary the CLI prints.
func (j *Journal) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "journal: %d sealed segment(s), %d checkpoint(s)",
		len(j.Manifest.Segments), len(j.Manifest.Checkpoints))
	if j.Manifest.Origin > 0 {
		fmt.Fprintf(&b, ", flight window from event %d", j.Manifest.Origin)
	}
	if j.Manifest.Complete {
		b.WriteString(", complete")
	} else if j.TailReport != nil {
		fmt.Fprintf(&b, "; tail %s: %s", SegmentFileName(j.TailIndex), j.TailReport.String())
	} else {
		b.WriteString("; no tail segment (lost in crash)")
	}
	return b.String()
}

// Source returns a replay Source covering the whole journal in order:
// each sealed segment's chunks, then the salvaged tail streams. The reader
// sees one logical container — segment headers are verified and stripped —
// and reaches a clean end marker, so a journal cut short replays with the
// same partial-trace semantics as a RecoverStream salvage. Load on the
// result yields a seekable Reader and is how callers validate every byte
// the manifest commits to; that Reader also knows where each segment
// starts (Reader.SegmentStart), so checkpoint k can be restored in place at
// segment k's seam.
func (j *Journal) Source() (*StreamReader, error) {
	if j.TailIndex == 0 && j.TailReport == nil {
		return nil, fmt.Errorf("trace: journal has no segment 0")
	}
	s := &StreamReader{}
	cur := 0
	index := 0 // data events in segments 0..cur-1
	var rc io.ReadCloser
	var synthetic []streamChunk
	s.next = func() (streamChunk, error) {
		for {
			if synthetic != nil {
				if len(synthetic) == 0 {
					return streamChunk{}, io.EOF
				}
				c := synthetic[0]
				synthetic = synthetic[1:]
				return c, nil
			}
			if rc == nil {
				if cur >= j.TailIndex {
					// Past the sealed segments: serve the salvaged tail as
					// synthetic chunks, then a synthetic end marker.
					synthetic = make([]streamChunk, 0, 3)
					if len(j.tailSw) > 0 {
						synthetic = append(synthetic, streamChunk{tag: chunkSwitch, payload: j.tailSw})
					}
					if len(j.tailData) > 0 {
						synthetic = append(synthetic, streamChunk{tag: chunkData, payload: j.tailData})
					}
					synthetic = append(synthetic, streamChunk{tag: chunkEnd})
					continue
				}
				var err error
				if rc, err = j.openSegment(cur); err != nil {
					return streamChunk{}, err
				}
				s.src = bufio.NewReader(rc)
			}
			c, err := readChunk(s.src)
			if err == io.EOF {
				return streamChunk{}, fmt.Errorf("trace: journal segment %d truncated despite manifest seal: %w",
					cur, io.ErrUnexpectedEOF)
			}
			if err != nil {
				return streamChunk{}, fmt.Errorf("trace: journal segment %d: %w", cur, err)
			}
			if c.tag == chunkEnd {
				// The end marker of a sealed segment is an internal seam:
				// strip it, and note where the next segment starts.
				rc.Close()
				rc = nil
				index += j.Manifest.Segments[cur].Events
				s.inner.seams = append(s.inner.seams, ReaderPos{SwPos: len(s.inner.sw), Pos: len(s.inner.data), Index: index})
				cur++
				continue
			}
			return c, nil
		}
	}
	return s, nil
}

// openSegment opens sealed segment i and verifies its container header.
func (j *Journal) openSegment(i int) (io.ReadCloser, error) {
	name := j.Manifest.Segments[i].Name
	rc, err := j.fs.Open(name)
	if err != nil {
		return nil, fmt.Errorf("trace: journal segment %d: %w", i, err)
	}
	h, err := readStreamHeader(rc)
	if err == nil && h != j.Manifest.ProgHash {
		err = fmt.Errorf("program hash mismatch (segment %x, manifest %x)", h, j.Manifest.ProgHash)
	}
	if err != nil {
		rc.Close()
		return nil, fmt.Errorf("trace: journal segment %d: %w", i, err)
	}
	return rc, nil
}

// LoadCheckpoint reads and verifies checkpoint file info. A replay over
// Source restores the returned checkpoint at segment info.Index's seam.
func (j *Journal) LoadCheckpoint(info CheckpointInfo) (*Checkpoint, error) {
	raw, err := readAll(j.fs, info.Name)
	if err != nil {
		return nil, fmt.Errorf("trace: journal checkpoint %s: %w", info.Name, err)
	}
	c, err := DecodeCheckpoint(raw, j.Manifest.ProgHash)
	if err != nil {
		return nil, err
	}
	if c.Index != info.Index || c.VMEvents != info.VMEvents {
		return nil, fmt.Errorf("%w: %s does not match its manifest entry", ErrCheckpoint, info.Name)
	}
	// A checkpoint may only seed a segment that actually has replayable
	// data behind it.
	if c.Index > j.TailIndex || (c.Index == j.TailIndex && j.TailReport == nil) {
		return nil, fmt.Errorf("%w: %s seeds segment %d, which was lost", ErrCheckpoint, info.Name, c.Index)
	}
	return &c, nil
}
