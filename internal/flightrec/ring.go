// Package flightrec implements the always-on flight recorder: a bounded
// in-memory ring journal layered on the segmented journal's checkpoint
// machinery. The ring records continuously at low cost, retaining only a
// rolling window — the newest in-window boundary checkpoint plus the
// segments behind it — and evicting older sealed segments from memory. When
// a fault fires (engine trap, replay divergence, watchdog stall, race-
// detector hit), the ring is frozen and its window flushed to disk as a
// self-contained segmented journal that replays from its own snapshot.
//
// The ring is a drop-in recording surface: it implements trace.Sink (the
// engine streams events into it) and vm.JournalSink (the VM drives rotation
// at instruction boundaries, handing over the snapshot that seeds the next
// segment). Because every retained segment run starts at a checkpoint the
// ring also retained, a flush is always replayable — the flushed manifest
// carries an `origin` marker telling readers the pre-window history is
// gone and replay must seed at the window start.
package flightrec

import (
	"bytes"
	"errors"
	"sync"

	"dejavu/internal/obs"
	"dejavu/internal/trace"
)

// DefaultWindowEvents is the retention window when Options names none.
const DefaultWindowEvents = 4096

// Options sizes a Ring.
type Options struct {
	// WindowEvents retains at least this many logged entries (data events
	// plus switches). Zero with WindowBytes also zero selects
	// DefaultWindowEvents.
	WindowEvents int
	// WindowBytes retains at least this many encoded trace bytes (0 = no
	// byte window).
	WindowBytes int64
	// SegmentEvents is the in-memory rotation granularity — how many logged
	// entries before the ring asks the VM for a boundary checkpoint. Zero
	// derives a quarter of the window, so eviction tracks the window
	// closely without checkpointing on every event.
	SegmentEvents int
	// ChunkBytes sets the per-segment stream chunking (0 = trace default).
	ChunkBytes int
	// Obs receives the ring's metrics (nil = disabled).
	Obs *obs.Registry
}

// memCk is an in-memory boundary checkpoint: the snapshot that seeds the
// segment it is attached to.
type memCk struct {
	state       []byte
	vmEvents    uint64
	boundaryNYP uint64
}

// memSeg is one sealed in-memory segment.
type memSeg struct {
	index    int // original recording index
	data     []byte
	events   int // data events
	switches int
	ck       *memCk // checkpoint seeding this segment (nil only for index 0)
}

func (s *memSeg) entries() int { return s.events + s.switches }

// Ring is the bounded in-memory journal. All methods are safe for
// concurrent use: the recording VM drives the sink and rotation from its
// goroutine while fault handlers (signal, session control plane) may
// freeze or flush from another.
type Ring struct {
	progHash  uint64
	opts      Options
	segEvents int
	segBytes  int64

	mu       sync.Mutex
	cur      *trace.StreamWriter
	curBuf   *bytes.Buffer
	curIndex int
	curEv    int    // logged entries in the open segment
	curCk    *memCk // checkpoint seeding the open segment
	segs     []memSeg
	agg      trace.Stats // lifetime totals, including evicted segments
	evicted  int
	frozen   bool
	sealed   bool
	ended    bool // the recording reached its end event
	err      error

	mEvict *obs.Counter
	mSegs  *obs.Gauge
	mBytes *obs.Gauge
}

// NewRing creates a ring for a program identified by progHash.
func NewRing(progHash uint64, o Options) (*Ring, error) {
	if o.WindowEvents <= 0 && o.WindowBytes <= 0 {
		o.WindowEvents = DefaultWindowEvents
	}
	r := &Ring{progHash: progHash, opts: o}
	r.segEvents = o.SegmentEvents
	if r.segEvents <= 0 {
		if o.WindowEvents > 0 {
			r.segEvents = o.WindowEvents / 4
			if r.segEvents < 1 {
				r.segEvents = 1
			}
		} else {
			r.segBytes = o.WindowBytes / 4
			if r.segBytes < 1 {
				r.segBytes = 1
			}
		}
	}
	r.mEvict = o.Obs.Counter("dv_flight_evictions_total")
	r.mSegs = o.Obs.Gauge("dv_flight_window_segments")
	r.mBytes = o.Obs.Gauge("dv_flight_window_bytes")
	r.agg = trace.Stats{Events: map[trace.Kind]int{}, BytesByKind: map[trace.Kind]int{}}
	if err := r.openLocked(0, nil); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *Ring) setErr(err error) {
	if r.err == nil && err != nil {
		r.err = err
	}
}

func (r *Ring) openLocked(i int, ck *memCk) error {
	buf := &bytes.Buffer{}
	w, err := trace.NewStreamWriter(buf, r.progHash, trace.StreamOptions{ChunkBytes: r.opts.ChunkBytes})
	if err != nil {
		return err
	}
	r.cur, r.curBuf, r.curIndex, r.curCk, r.curEv = w, buf, i, ck, 0
	return nil
}

// Sink implementation. After the final seal (flush) further events are
// dropped — the recording is over.

// Switch implements trace.Sink.
func (r *Ring) Switch(nyp uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cur != nil {
		r.cur.Switch(nyp)
		r.curEv++
	}
}

// Clock implements trace.Sink.
func (r *Ring) Clock(v int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cur != nil {
		r.cur.Clock(v)
		r.curEv++
	}
}

// Native implements trace.Sink.
func (r *Ring) Native(id int, vals []int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cur != nil {
		r.cur.Native(id, vals)
		r.curEv++
	}
}

// Input implements trace.Sink.
func (r *Ring) Input(b []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cur != nil {
		r.cur.Input(b)
		r.curEv++
	}
}

// Callback implements trace.Sink.
func (r *Ring) Callback(cb int, params []int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cur != nil {
		r.cur.Callback(cb, params)
		r.curEv++
	}
}

// End implements trace.Sink: the engine emits it when the recording truly
// ends — including runs cut short by a trap, which End still finalizes.
// A flush after End may mark its manifest complete; a mid-run flush must
// not (its replay stops with partial-trace semantics at the flush point).
func (r *Ring) End() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cur != nil {
		r.cur.End()
	}
	r.ended = true
}

// Stats implements trace.Sink: lifetime totals, including evicted segments.
func (r *Ring) Stats() trace.Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := trace.Stats{Events: map[trace.Kind]int{}, BytesByKind: map[trace.Kind]int{}}
	addStats(&out, r.agg)
	if r.cur != nil {
		addStats(&out, r.cur.Stats())
	}
	return out
}

func addStats(into *trace.Stats, s trace.Stats) {
	for k, v := range s.Events {
		into.Events[k] += v
	}
	for k, v := range s.BytesByKind {
		into.BytesByKind[k] += v
	}
	into.TotalBytes += s.TotalBytes
}

// RotatePending implements vm.JournalSink: the ring asks for a boundary
// checkpoint once the open segment reaches the rotation granularity.
// Frozen rings never rotate — the window is pinned for flushing.
func (r *Ring) RotatePending() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err != nil || r.frozen || r.sealed || r.cur == nil {
		return false
	}
	if r.segEvents > 0 && r.curEv >= r.segEvents {
		return true
	}
	if r.segBytes > 0 && int64(r.cur.Stats().TotalBytes) >= r.segBytes {
		return true
	}
	return false
}

// Rotate implements vm.JournalSink: seal the open segment in memory, start
// the next one seeded by the VM's snapshot, and evict sealed segments that
// have aged out of the window.
func (r *Ring) Rotate(state []byte, vmEvents, boundaryNYP uint64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sealed {
		return errors.New("flightrec: ring already flushed")
	}
	if r.err != nil {
		return r.err
	}
	r.sealCurLocked()
	ck := &memCk{
		state:       append([]byte(nil), state...),
		vmEvents:    vmEvents,
		boundaryNYP: boundaryNYP,
	}
	if err := r.openLocked(r.segs[len(r.segs)-1].index+1, ck); err != nil {
		r.setErr(err)
		return r.err
	}
	r.evictLocked()
	r.publishLocked()
	return r.err
}

// sealCurLocked closes the open segment and appends it to the sealed list.
func (r *Ring) sealCurLocked() {
	r.setErr(r.cur.Close())
	st := r.cur.Stats()
	addStats(&r.agg, st)
	events := 0
	for k, v := range st.Events {
		if k != trace.EvSwitch {
			events += v
		}
	}
	r.segs = append(r.segs, memSeg{
		index:    r.curIndex,
		data:     r.curBuf.Bytes(),
		events:   events,
		switches: st.Events[trace.EvSwitch],
		ck:       r.curCk,
	})
	r.cur, r.curBuf = nil, nil
}

// evictLocked drops sealed segments from the front while the remaining
// window (later sealed segments plus the open one) still covers every
// configured retention target. The segment seeding the remaining window
// always keeps its checkpoint, so a flush stays replayable.
func (r *Ring) evictLocked() {
	for len(r.segs) > 0 {
		remEntries := r.curEv
		remBytes := int64(r.cur.Stats().TotalBytes)
		for i := 1; i < len(r.segs); i++ {
			remEntries += r.segs[i].entries()
			remBytes += int64(len(r.segs[i].data))
		}
		if r.opts.WindowEvents > 0 && remEntries < r.opts.WindowEvents {
			return
		}
		if r.opts.WindowBytes > 0 && remBytes < r.opts.WindowBytes {
			return
		}
		r.segs[0] = memSeg{} // release the segment's memory
		r.segs = r.segs[1:]
		r.evicted++
		r.mEvict.Inc()
	}
}

func (r *Ring) publishLocked() {
	n, b := len(r.segs), int64(0)
	for _, s := range r.segs {
		b += int64(len(s.data))
	}
	if r.cur != nil {
		n++
		b += int64(r.cur.Stats().TotalBytes)
	}
	r.mSegs.Set(int64(n))
	r.mBytes.Set(b)
}

// Freeze pins the ring: rotation and eviction stop, so the window at the
// moment of the fault survives until it is flushed. Recording continues
// into the open segment — a race hit freezes immediately but the run keeps
// going, and the flush at run end carries everything through the fault.
// Freeze is idempotent.
func (r *Ring) Freeze() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.frozen = true
}

// Frozen reports whether the ring has been frozen.
func (r *Ring) Frozen() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.frozen
}

// Evicted returns how many sealed segments have been dropped.
func (r *Ring) Evicted() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.evicted
}

// Err returns the ring's sticky error.
func (r *Ring) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}
