package vm

import (
	"fmt"

	"dejavu/internal/bytecode"
)

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// Digest is an Observer folding every execution event into an FNV-1a
// style accumulator at word granularity: one xor and one multiply per
// event. Two executions with equal digests executed the same events in
// the same order, with the same switches and the same output.
//
// The fold word and its order are a persisted contract:
// interp_goldens.json pins record and replay digests, so neither may
// change without regenerating the goldens.
//
// A VM whose Config.Observer is a *Digest with KeepEvents == 0 folds the
// step word inside its per-event accounting (note) instead of calling
// OnStep; the switch and output folds run at their own sites through
// OnSwitch and OnOutput either way. KeepEvents must therefore be set
// before New: a digest that keeps a tail is served at the dispatch sites
// like any other per-event observer.
type Digest struct {
	sum      uint64
	switches uint64

	// KeepEvents > 0 retains the most recent events for divergence
	// diagnosis (see Recent).
	KeepEvents int
	tail       []stepEvent // ring of at most KeepEvents entries
	head       int         // oldest entry once the ring is full
}

// stepEvent is one retained event, formatted only by Recent.
type stepEvent struct {
	tid, mid, pc int32
	op           bytecode.Opcode
}

// NewDigest creates an empty digest.
func NewDigest() *Digest { return &Digest{sum: fnvOffset} }

// fold mixes one word into the digest. Word-granularity FNV-1a:
// xor-then-multiply is bijective in v for a fixed sum (the prime is
// odd), so any single-event difference changes the digest.
func (d *Digest) fold(v uint64) { d.sum = (d.sum ^ v) * fnvPrime }

// stepWord is the fold word of one instruction event.
func stepWord(threadID, methodID, pc int, op bytecode.Opcode) uint64 {
	return uint64(threadID)<<40 | uint64(methodID)<<24 | uint64(pc)<<8 | uint64(op)
}

// OnStep implements Observer.
func (d *Digest) OnStep(threadID, methodID, pc int, op bytecode.Opcode) {
	d.fold(stepWord(threadID, methodID, pc, op))
	if d.KeepEvents > 0 {
		e := stepEvent{int32(threadID), int32(methodID), int32(pc), op}
		if len(d.tail) < d.KeepEvents {
			d.tail = append(d.tail, e)
			return
		}
		d.tail[d.head] = e
		d.head++
		if d.head == len(d.tail) {
			d.head = 0
		}
	}
}

// OnOutput implements Observer.
func (d *Digest) OnOutput(b []byte) {
	for _, c := range b {
		d.fold(uint64(c) | 1<<63)
	}
}

// OnSwitch implements Observer.
func (d *Digest) OnSwitch(to int) {
	d.switches++
	d.fold(uint64(to) | 1<<62)
}

// Sum returns the digest value.
func (d *Digest) Sum() uint64 { return d.sum }

// Switches returns the dispatch count observed.
func (d *Digest) Switches() uint64 { return d.switches }

// Recent returns the retained event tail, oldest first, one
// "t<thread> m<method> pc<pc> <opcode>" line per event. Each call formats
// the tail afresh.
func (d *Digest) Recent() []string {
	if len(d.tail) == 0 {
		return nil
	}
	out := make([]string, 0, len(d.tail))
	for i := range d.tail {
		e := d.tail[(d.head+i)%len(d.tail)]
		out = append(out, fmt.Sprintf("t%d m%d pc%d %v", e.tid, e.mid, e.pc, e.op))
	}
	return out
}
