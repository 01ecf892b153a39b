package threads

import (
	"fmt"

	"dejavu/internal/heap"
)

// Snapshot is a deep copy of all scheduler state, used by the Igor-style
// checkpointing baseline and by the debugger's time travel.
type Snapshot struct {
	Threads  []Thread
	Tags     [][]bool
	ReadyQ   []int
	Current  int
	MonAddrs []heap.Addr
	Mons     []Monitor
	Timers   []timerEntry
	TimerSeq uint64
}

// Snapshot deep-copies the scheduler.
func (s *Scheduler) Snapshot() *Snapshot {
	snap := &Snapshot{
		ReadyQ:   append([]int(nil), s.readyQ...),
		Current:  s.current,
		Timers:   append([]timerEntry(nil), s.timers...),
		TimerSeq: s.timerSeq,
	}
	for _, t := range s.threads {
		snap.Threads = append(snap.Threads, *t)
		snap.Tags = append(snap.Tags, append([]bool(nil), t.Tags...))
	}
	for _, a := range s.monOrder {
		m := s.monitors[a]
		snap.MonAddrs = append(snap.MonAddrs, a)
		cp := *m
		cp.EntryQ = append([]int(nil), m.EntryQ...)
		cp.WaitQ = append([]int(nil), m.WaitQ...)
		snap.Mons = append(snap.Mons, cp)
	}
	return snap
}

// Restore reinstates a snapshot.
func (s *Scheduler) Restore(snap *Snapshot) {
	s.threads = s.threads[:0]
	s.changed, s.changedMark = s.changed[:0], s.changedMark[:0]
	for i := range snap.Threads {
		t := snap.Threads[i] // copy
		t.Tags = append([]bool(nil), snap.Tags[i]...)
		s.threads = append(s.threads, &t)
		s.changedMark = append(s.changedMark, false)
		s.markChanged(i)
	}
	s.readyQ = append(s.readyQ[:0:0], snap.ReadyQ...)
	s.current = snap.Current
	s.timers = append(s.timers[:0:0], snap.Timers...)
	s.timerSeq = snap.TimerSeq
	s.monitors = make(map[heap.Addr]*Monitor, len(snap.Mons))
	s.monOrder = append(s.monOrder[:0:0], snap.MonAddrs...)
	for i, a := range snap.MonAddrs {
		m := snap.Mons[i] // copy
		m.EntryQ = append([]int(nil), snap.Mons[i].EntryQ...)
		m.WaitQ = append([]int(nil), snap.Mons[i].WaitQ...)
		s.monitors[a] = &m
	}
}

// Serialization for checkpoint files. The format is varint-based; decode
// validates counts against the remaining input.

type snapWriter struct{ buf []byte }

func (w *snapWriter) uv(v uint64) {
	for v >= 0x80 {
		w.buf = append(w.buf, byte(v)|0x80)
		v >>= 7
	}
	w.buf = append(w.buf, byte(v))
}

func (w *snapWriter) sv(v int64) { w.uv(uint64(v)<<1 ^ uint64(v>>63)) }

func (w *snapWriter) b(v bool) {
	if v {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

type snapReader struct {
	data []byte
	err  error
}

func (r *snapReader) uv() uint64 {
	if r.err != nil {
		return 0
	}
	var v uint64
	var shift uint
	for i := 0; i < len(r.data); i++ {
		c := r.data[i]
		if c < 0x80 {
			r.data = r.data[i+1:]
			return v | uint64(c)<<shift
		}
		v |= uint64(c&0x7f) << shift
		shift += 7
	}
	r.err = fmt.Errorf("threads: truncated snapshot")
	return 0
}

func (r *snapReader) sv() int64 {
	u := r.uv()
	return int64(u>>1) ^ -int64(u&1)
}

func (r *snapReader) b() bool {
	if r.err != nil || len(r.data) == 0 {
		r.err = fmt.Errorf("threads: truncated snapshot")
		return false
	}
	v := r.data[0]
	r.data = r.data[1:]
	return v == 1
}

// EncodeTo serializes the scheduler snapshot.
func (s *Snapshot) EncodeTo(buf *[]byte) {
	w := &snapWriter{buf: *buf}
	w.uv(uint64(len(s.Threads)))
	for i := range s.Threads {
		t := &s.Threads[i]
		w.uv(uint64(t.ID))
		w.uv(uint64(t.State))
		w.uv(uint64(t.StackSeg))
		w.sv(int64(t.FP))
		w.sv(int64(t.SP))
		w.uv(uint64(t.WaitingOn))
		w.sv(t.WakeAt)
		w.b(t.Interrupted)
		w.sv(int64(t.SavedRecursion))
		w.uv(t.YieldCount)
		w.uv(t.NYP)
		w.uv(t.EventCount)
		w.uv(uint64(t.MirrorObj))
		tags := s.Tags[i]
		w.uv(uint64(len(tags)))
		for _, tg := range tags {
			w.b(tg)
		}
	}
	w.uv(uint64(len(s.ReadyQ)))
	for _, id := range s.ReadyQ {
		w.uv(uint64(id))
	}
	w.sv(int64(s.Current))
	w.uv(uint64(len(s.Mons)))
	for i := range s.Mons {
		w.uv(uint64(s.MonAddrs[i]))
		m := &s.Mons[i]
		w.sv(int64(m.Owner))
		w.sv(int64(m.Recursion))
		w.uv(uint64(len(m.EntryQ)))
		for _, id := range m.EntryQ {
			w.uv(uint64(id))
		}
		w.uv(uint64(len(m.WaitQ)))
		for _, id := range m.WaitQ {
			w.uv(uint64(id))
		}
	}
	w.uv(uint64(len(s.Timers)))
	for _, e := range s.Timers {
		w.sv(e.WakeAt)
		w.uv(e.Seq)
		w.uv(uint64(e.TID))
	}
	w.uv(s.TimerSeq)
	*buf = w.buf
}

// DecodeSnapshot parses a snapshot encoded by EncodeTo, returning the
// unread remainder.
func DecodeSnapshot(data []byte) (*Snapshot, []byte, error) {
	r := &snapReader{data: data}
	s := &Snapshot{}
	n := r.uv()
	if r.err == nil && n > uint64(len(r.data)) {
		return nil, nil, fmt.Errorf("threads: snapshot thread count corrupt")
	}
	for i := uint64(0); i < n && r.err == nil; i++ {
		var t Thread
		t.ID = int(r.uv())
		t.State = State(r.uv())
		t.StackSeg = heap.Addr(r.uv())
		t.FP = int(r.sv())
		t.SP = int(r.sv())
		t.WaitingOn = heap.Addr(r.uv())
		t.WakeAt = r.sv()
		t.Interrupted = r.b()
		t.SavedRecursion = int(r.sv())
		t.YieldCount = r.uv()
		t.NYP = r.uv()
		t.EventCount = r.uv()
		t.MirrorObj = heap.Addr(r.uv())
		nt := r.uv()
		if r.err == nil && nt > uint64(len(r.data)) {
			return nil, nil, fmt.Errorf("threads: snapshot tag count corrupt")
		}
		var tags []bool
		if nt > 0 {
			tags = make([]bool, nt)
			for j := range tags {
				tags[j] = r.b()
			}
		}
		s.Threads = append(s.Threads, t)
		s.Tags = append(s.Tags, tags)
	}
	nq := r.uv()
	if r.err == nil && nq > uint64(len(r.data))+1 {
		return nil, nil, fmt.Errorf("threads: snapshot ready queue corrupt")
	}
	for i := uint64(0); i < nq && r.err == nil; i++ {
		s.ReadyQ = append(s.ReadyQ, int(r.uv()))
	}
	s.Current = int(r.sv())
	nm := r.uv()
	if r.err == nil && nm > uint64(len(r.data))+1 {
		return nil, nil, fmt.Errorf("threads: snapshot monitor count corrupt")
	}
	for i := uint64(0); i < nm && r.err == nil; i++ {
		s.MonAddrs = append(s.MonAddrs, heap.Addr(r.uv()))
		var m Monitor
		m.Owner = int(r.sv())
		m.Recursion = int(r.sv())
		ne := r.uv()
		for j := uint64(0); j < ne && r.err == nil; j++ {
			m.EntryQ = append(m.EntryQ, int(r.uv()))
		}
		nw := r.uv()
		for j := uint64(0); j < nw && r.err == nil; j++ {
			m.WaitQ = append(m.WaitQ, int(r.uv()))
		}
		s.Mons = append(s.Mons, m)
	}
	ntm := r.uv()
	if r.err == nil && ntm > uint64(len(r.data))+1 {
		return nil, nil, fmt.Errorf("threads: snapshot timer count corrupt")
	}
	for i := uint64(0); i < ntm && r.err == nil; i++ {
		var e timerEntry
		e.WakeAt = r.sv()
		e.Seq = r.uv()
		e.TID = int(r.uv())
		s.Timers = append(s.Timers, e)
	}
	s.TimerSeq = r.uv()
	if r.err != nil {
		return nil, nil, r.err
	}
	return s, r.data, nil
}
