package vm

import (
	"errors"

	"dejavu/internal/core"
	"dejavu/internal/heap"
	"dejavu/internal/threads"
)

// Snapshot is a complete VM checkpoint: heap image, scheduler state, and
// (in replay mode) the engine's trace position. It supports the Igor-style
// checkpoint-and-re-execute baseline and the debugger's time travel:
// restore the nearest earlier checkpoint, then re-replay forward.
//
// Snapshots taken outside replay mode capture state faithfully, but
// re-execution from them is only exact when no non-deterministic source
// (timer, clock, native) will be consulted afterwards — which is exactly
// why the paper pairs checkpointing with deterministic replay.
//
// The same struct also serves as a view of a live VM (VM.view), whose
// slices alias the VM's own; appendCheckpoint encodes either one.
type Snapshot struct {
	heap   *heap.Snapshot     // a copy; nil in a view, whose encoder reads the live heap
	sched  *threads.Scheduler // a clone, or the live scheduler in a view
	engine *core.EngineSnapshot

	events     uint64
	halted     bool
	deferred   bool
	out        []byte
	interned   []internEntry // only addr is checkpoint state
	staticsObj []heap.Addr
	classMir   []heap.Addr
	methodMir  []heap.Addr
	dict       heap.Addr
	threadsArr heap.Addr
	captureBuf heap.Addr
}

// ErrNestedSnapshot rejects snapshots taken inside a native callback.
var ErrNestedSnapshot = errors.New("vm: cannot snapshot inside a native callback")

// view returns the VM's checkpoint state without copying any of it: the
// slices are the VM's own and sched is the live scheduler, so the view is
// valid only until the VM next runs. Its heap is nil: the encoder reads
// the live heap in place. In replay mode it carries the engine snapshot.
func (vm *VM) view() (Snapshot, error) {
	if vm.nestedDepth != 0 {
		return Snapshot{}, ErrNestedSnapshot
	}
	s := Snapshot{
		sched:      vm.sched,
		events:     vm.events,
		halted:     vm.halted,
		deferred:   vm.deferred,
		out:        vm.out.buf,
		interned:   vm.interned,
		staticsObj: vm.staticsObj,
		classMir:   vm.classMirrors,
		methodMir:  vm.methodMirrors,
		dict:       vm.dict,
		threadsArr: vm.threadsArr,
		captureBuf: vm.captureBuf,
	}
	if vm.eng.Mode() == core.ModeReplay {
		es, err := vm.eng.Snapshot()
		if err != nil {
			return Snapshot{}, err
		}
		s.engine = es
	}
	return s, nil
}

// Snapshot captures the full VM state at the current instruction boundary
// into memory the VM does not share.
func (vm *VM) Snapshot() (*Snapshot, error) {
	s, err := vm.view()
	if err != nil {
		return nil, err
	}
	s.heap = vm.h.Snapshot()
	s.sched = vm.sched.Clone()
	s.out = append([]byte(nil), s.out...)
	s.interned = append([]internEntry(nil), s.interned...)
	s.staticsObj = append([]heap.Addr(nil), s.staticsObj...)
	s.classMir = append([]heap.Addr(nil), s.classMir...)
	s.methodMir = append([]heap.Addr(nil), s.methodMir...)
	return &s, nil
}

// SnapshotBytes reports the in-memory footprint of a snapshot (allocated
// heap image plus scheduler metadata), for the checkpointing experiments.
func (s *Snapshot) SnapshotBytes() int {
	n := len(s.heap.Image) + len(s.out)
	n += 8 * (len(s.interned) + len(s.staticsObj) + len(s.classMir) + len(s.methodMir))
	for _, t := range s.sched.Threads() {
		n += 128 + len(t.Tags)
	}
	return n
}

// Events returns the instruction count at which the snapshot was taken.
func (s *Snapshot) Events() uint64 { return s.events }

// Restore rewinds the VM to a snapshot taken from this VM.
func (vm *VM) Restore(s *Snapshot) error {
	if vm.nestedDepth != 0 {
		return ErrNestedSnapshot
	}
	vm.h.Restore(s.heap)
	vm.sched.Restore(s.sched)
	vm.events = s.events
	vm.halted = s.halted
	vm.deferred = s.deferred
	vm.err = nil
	vm.out.buf = append(vm.out.buf[:0:0], s.out...)
	vm.staticsObj = append(vm.staticsObj[:0:0], s.staticsObj...)
	vm.classMirrors = append(vm.classMirrors[:0:0], s.classMir...)
	vm.methodMirrors = append(vm.methodMirrors[:0:0], s.methodMir...)
	vm.dict = s.dict
	vm.threadsArr = s.threadsArr
	vm.captureBuf = s.captureBuf
	for i := range s.interned {
		vm.interned[i].addr = s.interned[i].addr
	}
	// Interned strings only grow; entries beyond the snapshot's length
	// were added after it and their heap storage is gone. Drop them.
	if len(s.interned) < len(vm.interned) {
		for _, e := range vm.interned[len(s.interned):] {
			delete(vm.internIdx, e.s)
		}
		vm.interned = vm.interned[:len(s.interned)]
	}
	if s.engine != nil {
		if err := vm.eng.Restore(s.engine); err != nil {
			return err
		}
	}
	return nil
}
