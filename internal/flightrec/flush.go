// Fault-triggered flush: persist the ring's retained window as a
// self-contained segmented journal.
//
// Layout. A window whose pre-history was evicted cannot pretend to start at
// instruction zero, so the flush renumbers the retained segments to 1..N
// and writes a synthetic empty segment 0 (a valid DVS1 container holding no
// events) purely to satisfy the journal's consecutive-indexing invariant.
// Checkpoint 1 is the window-start snapshot, and the manifest carries an
// `origin` directive naming the first replayable instruction — readers must
// seed at or after it, never from zero. A window that still reaches back to
// the true start flushes as an ordinary journal with no origin.
//
// Atomicity. FlushTo writes every file as a dot-prefixed temporary (names
// starting with "." are rejected by manifest validation and ignored by
// OpenJournal, so they are invisible), fsyncs it, then renames into place
// in an order chosen so every crash cut lands in a safe state:
//
//  1. checkpoint files, ascending — without a manifest they are inert;
//  2. segment files in REVERSE index order, segment 0 LAST — OpenJournal
//     treats "segment 0 present, no manifest" as an all-tail salvage from
//     instruction zero, which would be wrong for an origin window, so
//     segment 0 must not appear before everything behind it is in place,
//     and even then the worst case is an empty salvage (the synthetic
//     segment holds nothing), which fails closed;
//  3. MANIFEST last — the commit point. Only once it lands does the
//     directory parse as the flushed journal.
//
// Flush wraps FlushTo in the production discipline: write into a fresh
// sibling temp directory, then publish it with a single atomic rename.
package flightrec

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"dejavu/internal/obs"
	"dejavu/internal/trace"
)

// FlushInfo describes one completed flush.
type FlushInfo struct {
	Reason   string `json:"reason"`
	Origin   uint64 `json:"origin"`   // first replayable instruction (0 = from the start)
	Segments int    `json:"segments"` // retained window segments (excluding the synthetic placeholder)
	Events   int    `json:"events"`   // data events in the window
	Switches int    `json:"switches"` // switch entries in the window
	Bytes    int64  `json:"bytes"`    // window trace bytes written
	Evicted  int    `json:"evicted"`  // segments dropped over the ring's lifetime
	Complete bool   `json:"complete"` // recording reached its end event before the flush
}

// FlushTo freezes and seals the ring, then persists the retained window
// onto fs using the crash-ordered protocol above. It is idempotent over
// the ring state: a second flush writes the same window again (to the same
// or another fs).
func (r *Ring) FlushTo(fs trace.FS, reason string) (*FlushInfo, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.frozen = true
	if !r.sealed {
		r.sealed = true
		if r.cur != nil {
			r.sealCurLocked()
		}
	}
	if r.err != nil {
		return nil, fmt.Errorf("flightrec: ring in error state: %w", r.err)
	}
	if len(r.segs) == 0 {
		return nil, errors.New("flightrec: nothing recorded")
	}

	base := r.segs[0].index
	shift := 0
	man := trace.Manifest{ProgHash: r.progHash, Complete: r.ended}
	var segFiles, ckFiles []pendingFile
	if base > 0 {
		shift = 1
		man.Origin = r.segs[0].ck.vmEvents
		empty, err := emptySegment(r.progHash)
		if err != nil {
			return nil, err
		}
		man.Segments = append(man.Segments, trace.SegmentInfo{
			Index: 0, Name: trace.SegmentFileName(0), Bytes: int64(len(empty)),
		})
		segFiles = append(segFiles, pendingFile{trace.SegmentFileName(0), empty})
	}
	info := &FlushInfo{Reason: reason, Origin: man.Origin, Segments: len(r.segs),
		Evicted: r.evicted, Complete: r.ended}
	for i, s := range r.segs {
		fi := i + shift
		man.Segments = append(man.Segments, trace.SegmentInfo{
			Index: fi, Name: trace.SegmentFileName(fi),
			Events: s.events, Switches: s.switches, Bytes: int64(len(s.data)),
		})
		segFiles = append(segFiles, pendingFile{trace.SegmentFileName(fi), s.data})
		if s.ck != nil {
			man.Checkpoints = append(man.Checkpoints, trace.CheckpointInfo{
				Index: fi, Name: trace.CheckpointFileName(fi), VMEvents: s.ck.vmEvents,
			})
			ckFiles = append(ckFiles, pendingFile{
				trace.CheckpointFileName(fi),
				trace.EncodeCheckpoint(r.progHash, trace.Checkpoint{
					Index: fi, VMEvents: s.ck.vmEvents, BoundaryNYP: s.ck.boundaryNYP, State: s.ck.state,
				}),
			})
		}
		info.Events += s.events
		info.Switches += s.switches
		info.Bytes += int64(len(s.data))
	}

	// Stage every file as an invisible dot-temp first…
	all := append(append([]pendingFile{}, ckFiles...), segFiles...)
	all = append(all, pendingFile{manifestName, man.Encode()})
	for _, pf := range all {
		if err := writeTemp(fs, pf); err != nil {
			return nil, err
		}
	}
	// …then rename in the crash-safe order: checkpoints, segments highest
	// index first (segment 0 last), manifest as the commit point.
	for _, pf := range ckFiles {
		if err := fs.Rename("."+pf.name, pf.name); err != nil {
			return nil, fmt.Errorf("flightrec: publish %s: %w", pf.name, err)
		}
	}
	for i := len(segFiles) - 1; i >= 0; i-- {
		if err := fs.Rename("."+segFiles[i].name, segFiles[i].name); err != nil {
			return nil, fmt.Errorf("flightrec: publish %s: %w", segFiles[i].name, err)
		}
	}
	if err := fs.Rename("."+manifestName, manifestName); err != nil {
		return nil, fmt.Errorf("flightrec: publish manifest: %w", err)
	}

	r.opts.Obs.Counter(obs.Label("dv_flight_flushes_total", "reason", reason)).Inc()
	r.opts.Obs.Counter("dv_flight_flush_bytes_total").Add(uint64(info.Bytes))
	return info, nil
}

// manifestName mirrors the trace package's manifest file name; the journal
// format owns it, the flight recorder merely writes it last.
const manifestName = "MANIFEST"

type pendingFile struct {
	name string
	data []byte
}

func writeTemp(fs trace.FS, pf pendingFile) error {
	f, err := fs.Create("." + pf.name)
	if err != nil {
		return fmt.Errorf("flightrec: stage %s: %w", pf.name, err)
	}
	if _, err := f.Write(pf.data); err != nil {
		f.Close()
		return fmt.Errorf("flightrec: stage %s: %w", pf.name, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("flightrec: stage %s: %w", pf.name, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("flightrec: stage %s: %w", pf.name, err)
	}
	return nil
}

// emptySegment builds the synthetic segment 0: a well-formed DVS1 container
// holding no events, so readers that open it see a valid header and an
// immediate end marker.
func emptySegment(progHash uint64) ([]byte, error) {
	var buf bytes.Buffer
	w, err := trace.NewStreamWriter(&buf, progHash, trace.StreamOptions{})
	if err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Flush persists the window as journal directory dir (which must not yet
// exist) via a sibling temp directory and one atomic rename, so dir either
// appears as a complete flushed journal or not at all.
func (r *Ring) Flush(dir, reason string) (*FlushInfo, error) {
	parent := filepath.Dir(dir)
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return nil, fmt.Errorf("flightrec: flush dir: %w", err)
	}
	tmp, err := os.MkdirTemp(parent, ".flight-")
	if err != nil {
		return nil, fmt.Errorf("flightrec: flush temp dir: %w", err)
	}
	fs, err := trace.NewDirFS(tmp)
	if err != nil {
		os.RemoveAll(tmp)
		return nil, err
	}
	info, err := r.FlushTo(fs, reason)
	if err != nil {
		os.RemoveAll(tmp)
		return nil, err
	}
	if err := os.Rename(tmp, dir); err != nil {
		os.RemoveAll(tmp)
		return nil, fmt.Errorf("flightrec: publish %s: %w", dir, err)
	}
	return info, nil
}
