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
type Snapshot struct {
	heap   *heap.Snapshot
	sched  *threads.Snapshot
	engine *core.EngineSnapshot

	events     uint64
	halted     bool
	deferred   bool
	out        []byte
	interned   []heap.Addr
	staticsObj []heap.Addr
	classMir   []heap.Addr
	methodMir  []heap.Addr
	dict       heap.Addr
	threadsArr heap.Addr
	captureBuf heap.Addr
}

// ErrNestedSnapshot rejects snapshots taken inside a native callback.
var ErrNestedSnapshot = errors.New("vm: cannot snapshot inside a native callback")

// Snapshot captures the full VM state at the current instruction boundary.
func (vm *VM) Snapshot() (*Snapshot, error) {
	if vm.nestedDepth != 0 {
		return nil, ErrNestedSnapshot
	}
	s := &Snapshot{
		heap:       vm.h.Snapshot(),
		sched:      vm.sched.Snapshot(),
		events:     vm.events,
		halted:     vm.halted,
		deferred:   vm.deferred,
		out:        append([]byte(nil), vm.out.buf...),
		staticsObj: append([]heap.Addr(nil), vm.staticsObj...),
		classMir:   append([]heap.Addr(nil), vm.classMirrors...),
		methodMir:  append([]heap.Addr(nil), vm.methodMirrors...),
		dict:       vm.dict,
		threadsArr: vm.threadsArr,
		captureBuf: vm.captureBuf,
	}
	for _, e := range vm.interned {
		s.interned = append(s.interned, e.addr)
	}
	if vm.eng.Mode() == core.ModeReplay {
		es, err := vm.eng.Snapshot()
		if err != nil {
			return nil, err
		}
		s.engine = es
	}
	return s, nil
}

// SnapshotBytes reports the in-memory footprint of a snapshot (allocated
// heap image plus scheduler metadata), for the checkpointing experiments.
func (s *Snapshot) SnapshotBytes() int {
	n := len(s.heap.Image) + len(s.out)
	n += 8 * (len(s.interned) + len(s.staticsObj) + len(s.classMir) + len(s.methodMir))
	for i := range s.sched.Threads {
		n += 128 + len(s.sched.Tags[i])
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
		vm.interned[i].addr = s.interned[i]
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
