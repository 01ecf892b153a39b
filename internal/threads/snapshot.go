package threads

import (
	"encoding/binary"
	"fmt"

	"dejavu/internal/heap"
)

// Clone deep-copies the scheduler, for the VM's in-memory checkpoints:
// Restore(clone) rewinds to it, and clone.AppendCheckpoint encodes it.
func (s *Scheduler) Clone() *Scheduler {
	c := &Scheduler{} // Restore sets every field but the (empty) monitor pool
	c.Restore(s)
	return c
}

// Restore makes the scheduler a deep copy of from, a clone or a decoded
// checkpoint; from is left as it was. Every thread is listed as changed.
func (s *Scheduler) Restore(from *Scheduler) {
	s.threads = s.threads[:0]
	s.changed, s.changedMark = s.changed[:0], s.changedMark[:0]
	for i, ft := range from.threads {
		t := *ft // copy
		t.Tags = append([]bool(nil), ft.Tags...)
		s.threads = append(s.threads, &t)
		s.changedMark = append(s.changedMark, false)
		s.markChanged(i)
	}
	s.readyQ = append(s.readyQ[:0:0], from.readyQ...)
	s.current = from.current
	s.timers = append(s.timers[:0:0], from.timers...)
	s.timerSeq = from.timerSeq
	s.monitors = make(map[heap.Addr]*Monitor, len(from.monOrder))
	s.monOrder = append(s.monOrder[:0:0], from.monOrder...)
	for _, a := range from.monOrder {
		m := *from.monitors[a] // copy
		m.EntryQ = append([]int(nil), m.EntryQ...)
		m.WaitQ = append([]int(nil), m.WaitQ...)
		s.monitors[a] = &m
	}
}

// Serialization for checkpoint files. The format is varint-based; decode
// validates counts against the remaining input.

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

// AppendCheckpoint appends the scheduler's checkpoint encoding to buf,
// read in place from the live threads, tags, ready queue, monitors (in
// creation order) and timers. It copies nothing but into buf.
func (s *Scheduler) AppendCheckpoint(buf []byte) []byte {
	uv, sv := binary.AppendUvarint, binary.AppendVarint
	buf = uv(buf, uint64(len(s.threads)))
	for _, t := range s.threads {
		buf = uv(buf, uint64(t.ID))
		buf = uv(buf, uint64(t.State))
		buf = uv(buf, uint64(t.StackSeg))
		buf = sv(buf, int64(t.FP))
		buf = sv(buf, int64(t.SP))
		buf = uv(buf, uint64(t.WaitingOn))
		buf = sv(buf, t.WakeAt)
		buf = appendBool(buf, t.Interrupted)
		buf = sv(buf, int64(t.SavedRecursion))
		buf = uv(buf, t.YieldCount)
		buf = uv(buf, t.EventCount)
		buf = uv(buf, uint64(t.MirrorObj))
		buf = uv(buf, uint64(len(t.Tags)))
		for _, tg := range t.Tags {
			buf = appendBool(buf, tg)
		}
	}
	buf = uv(buf, uint64(len(s.readyQ)))
	for _, id := range s.readyQ {
		buf = uv(buf, uint64(id))
	}
	buf = sv(buf, int64(s.current))
	buf = uv(buf, uint64(len(s.monOrder)))
	for _, a := range s.monOrder {
		m := s.monitors[a]
		buf = uv(buf, uint64(a))
		buf = sv(buf, int64(m.Owner))
		buf = sv(buf, int64(m.Recursion))
		buf = uv(buf, uint64(len(m.EntryQ)))
		for _, id := range m.EntryQ {
			buf = uv(buf, uint64(id))
		}
		buf = uv(buf, uint64(len(m.WaitQ)))
		for _, id := range m.WaitQ {
			buf = uv(buf, uint64(id))
		}
	}
	buf = uv(buf, uint64(len(s.timers)))
	for _, e := range s.timers {
		buf = sv(buf, e.WakeAt)
		buf = uv(buf, e.Seq)
		buf = uv(buf, uint64(e.TID))
	}
	return uv(buf, s.timerSeq)
}

func appendBool(buf []byte, v bool) []byte {
	if v {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// DecodeCheckpoint parses a checkpoint encoded by AppendCheckpoint into a
// scheduler to Restore from, returning the unread remainder.
func DecodeCheckpoint(data []byte) (*Scheduler, []byte, error) {
	r := &snapReader{data: data}
	s := NewScheduler()
	n := r.uv()
	if r.err == nil && n > uint64(len(r.data)) {
		return nil, nil, fmt.Errorf("threads: snapshot thread count corrupt")
	}
	ts := make([]Thread, n) // n is at most the bytes left, one per thread at least
	for i := uint64(0); i < n && r.err == nil; i++ {
		t := &ts[i]
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
		t.EventCount = r.uv()
		t.MirrorObj = heap.Addr(r.uv())
		nt := r.uv()
		if r.err == nil && nt > uint64(len(r.data)) {
			return nil, nil, fmt.Errorf("threads: snapshot tag count corrupt")
		}
		if nt > 0 {
			t.Tags = make([]bool, nt)
			for j := range t.Tags {
				t.Tags[j] = r.b()
			}
		}
		s.threads = append(s.threads, t)
	}
	nq := r.uv()
	if r.err == nil && nq > uint64(len(r.data))+1 {
		return nil, nil, fmt.Errorf("threads: snapshot ready queue corrupt")
	}
	for i := uint64(0); i < nq && r.err == nil; i++ {
		s.readyQ = append(s.readyQ, int(r.uv()))
	}
	s.current = int(r.sv())
	nm := r.uv()
	if r.err == nil && nm > uint64(len(r.data))+1 {
		return nil, nil, fmt.Errorf("threads: snapshot monitor count corrupt")
	}
	for i := uint64(0); i < nm && r.err == nil; i++ {
		a := heap.Addr(r.uv())
		m := &Monitor{}
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
		s.monOrder = append(s.monOrder, a)
		s.monitors[a] = m
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
		s.timers = append(s.timers, e)
	}
	s.timerSeq = r.uv()
	if r.err != nil {
		return nil, nil, r.err
	}
	return s, r.data, nil
}
