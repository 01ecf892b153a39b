package vm

import (
	"encoding/binary"
	"errors"
	"fmt"

	"dejavu/internal/core"
	"dejavu/internal/heap"
	"dejavu/internal/threads"
	"dejavu/internal/trace"
)

// Checkpoint files: a Snapshot serialized to bytes, so a replay session
// can resume in a *fresh process* — build the same replaying VM (same
// program image, same trace) and RestoreBytes the checkpoint. Combined
// with deterministic replay this gives durable, shareable time-travel
// points: a colleague can open your recorded failure at event N without
// re-executing the prefix.

const checkpointMagic = "DVCK"

// AppendCheckpoint appends the VM's state at the current instruction
// boundary to buf as checkpoint bytes, encoded straight from the live
// heap, scheduler and VM tables without an intermediate copy. The header
// binds the bytes to the program image hash; RestoreBytes refuses
// checkpoints from other programs. Inside a native callback it refuses
// with ErrNestedSnapshot and returns buf unchanged.
func (vm *VM) AppendCheckpoint(buf []byte) ([]byte, error) {
	s, err := vm.view()
	if err != nil {
		return buf, err
	}
	return s.appendCheckpoint(buf, vm.progHash, vm.h), nil
}

// Encode returns the snapshot as checkpoint bytes, the bytes
// AppendCheckpoint would have produced when it was taken. Checkpoint
// writers encode from the live VM instead; this serves holders of an
// in-memory snapshot.
func (s *Snapshot) Encode(progHash uint64) []byte {
	return s.appendCheckpoint(make([]byte, 0, len(s.heap.Image)+4096), progHash, nil)
}

// appendCheckpoint is the one checkpoint encoder. It appends s to buf:
// magic, program hash, the heap (read in place from live when it is set,
// as for a view, else from s.heap), the scheduler, the VM tables and, in
// replay mode, the engine position.
func (s *Snapshot) appendCheckpoint(buf []byte, progHash uint64, live *heap.Heap) []byte {
	buf = append(buf, checkpointMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, progHash)
	if live != nil {
		buf = live.AppendCheckpoint(buf)
	} else {
		buf = s.heap.AppendCheckpoint(buf)
	}
	buf = s.sched.AppendCheckpoint(buf)

	uv := binary.AppendUvarint
	buf = uv(buf, s.events)
	buf = appendBool(buf, s.halted)
	buf = appendBool(buf, s.deferred)
	buf = uv(buf, uint64(len(s.out)))
	buf = append(buf, s.out...)
	buf = uv(buf, uint64(len(s.interned)))
	for _, e := range s.interned {
		buf = uv(buf, uint64(e.addr))
	}
	buf = appendAddrs(buf, s.staticsObj)
	buf = appendAddrs(buf, s.classMir)
	buf = appendAddrs(buf, s.methodMir)
	buf = uv(buf, uint64(s.dict))
	buf = uv(buf, uint64(s.threadsArr))
	buf = uv(buf, uint64(s.captureBuf))
	buf = appendBool(buf, s.engine != nil)
	if s.engine != nil {
		s.engine.EncodeTo(&buf)
	}
	return buf
}

func appendAddrs(buf []byte, as []heap.Addr) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(as)))
	for _, a := range as {
		buf = binary.AppendUvarint(buf, uint64(a))
	}
	return buf
}

func appendBool(buf []byte, v bool) []byte {
	if v {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// ErrCheckpointRefused wraps every reason RestoreBytes and RestoreSeam
// refuse a checkpoint: bad framing, another program, a shape or heap
// geometry this VM cannot take, or an encoding from an older checkpoint
// format. Journal replay then seeds from an earlier checkpoint or from
// zero.
var ErrCheckpointRefused = errors.New("vm: checkpoint refused")

// RestoreBytes decodes a checkpoint produced by AppendCheckpoint against
// this VM's program and reinstates it. The VM must have been constructed
// the same way as the one that took the checkpoint (same program image;
// for replay checkpoints, an engine over the same trace). A refusal wraps
// ErrCheckpointRefused.
func (vm *VM) RestoreBytes(data []byte) error {
	s, err := vm.decodeCheckpoint(data)
	if err != nil {
		return err
	}
	if err := vm.Restore(s); err != nil {
		return fmt.Errorf("%w: %w", ErrCheckpointRefused, err)
	}
	vm.restoredBytes = true
	return nil
}

// RestoreSeam reinstates a durable journal checkpoint, one taken at a
// segment boundary while recording, and moves the replay engine to the seam
// pos where that segment starts in its trace, boundaryNYP yield points into
// the switch interval spanning it (core.Engine.SeedAt). It checks the
// checkpoint against this VM and the seam against the trace before it
// changes anything, so a refusal leaves the VM as it was; a checkpoint the
// VM cannot take wraps ErrCheckpointRefused.
func (vm *VM) RestoreSeam(data []byte, pos trace.ReaderPos, boundaryNYP uint64) error {
	if vm.nestedDepth != 0 {
		return ErrNestedSnapshot
	}
	s, err := vm.decodeCheckpoint(data)
	if err != nil {
		return err
	}
	if s.engine != nil {
		// The seam, not a replay position, says where the engine stands.
		return fmt.Errorf("%w: vm: a seam checkpoint carries no replay state", ErrCheckpointRefused)
	}
	if err := vm.eng.SeedAt(pos, boundaryNYP); err != nil {
		return err
	}
	// Cannot fail: the nesting is checked and the snapshot has no engine.
	vm.Restore(s)
	vm.restoredBytes = true
	return nil
}

// decodeCheckpoint decodes checkpoint bytes and checks them against this
// VM without changing it. A refusal wraps ErrCheckpointRefused.
func (vm *VM) decodeCheckpoint(data []byte) (*Snapshot, error) {
	s, err := vm.decodeSnapshot(data)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCheckpointRefused, err)
	}
	return s, nil
}

func (vm *VM) decodeSnapshot(data []byte) (*Snapshot, error) {
	if len(data) < len(checkpointMagic)+8 || string(data[:4]) != checkpointMagic {
		return nil, fmt.Errorf("vm: bad checkpoint magic")
	}
	h := binary.LittleEndian.Uint64(data[4:12])
	if h != vm.progHash {
		return nil, fmt.Errorf("vm: checkpoint is for program %x, this VM runs %x", h, vm.progHash)
	}
	data = data[12:]

	var fail error
	uv := func() uint64 {
		if fail != nil {
			return 0
		}
		var v uint64
		var shift uint
		for i := 0; i < len(data); i++ {
			c := data[i]
			if c < 0x80 {
				data = data[i+1:]
				return v | uint64(c)<<shift
			}
			v |= uint64(c&0x7f) << shift
			shift += 7
		}
		fail = fmt.Errorf("vm: truncated checkpoint")
		return 0
	}
	bl := func() bool {
		if fail != nil || len(data) == 0 {
			fail = fmt.Errorf("vm: truncated checkpoint")
			return false
		}
		v := data[0]
		data = data[1:]
		return v == 1
	}
	addrs := func() []heap.Addr {
		n := uv()
		if fail == nil && n > uint64(len(data))+1 {
			fail = fmt.Errorf("vm: checkpoint address list corrupt")
			return nil
		}
		out := make([]heap.Addr, 0, n)
		for i := uint64(0); i < n && fail == nil; i++ {
			out = append(out, heap.Addr(uv()))
		}
		return out
	}

	s := &Snapshot{}
	var err error
	if s.heap, data, err = heap.DecodeSnapshot(data); err != nil {
		return nil, err
	}
	if 2*s.heap.Semi > vm.cfg.MaxHeapBytes {
		return nil, fmt.Errorf("vm: checkpoint heap of %d bytes exceeds MaxHeapBytes %d", 2*s.heap.Semi, vm.cfg.MaxHeapBytes)
	}
	if s.sched, data, err = threads.DecodeCheckpoint(data); err != nil {
		return nil, err
	}
	s.events = uv()
	s.halted = bl()
	s.deferred = bl()
	n := uv()
	if fail == nil && n > uint64(len(data)) {
		return nil, fmt.Errorf("vm: checkpoint output corrupt")
	}
	if fail == nil {
		s.out = data[:n:n] // Restore copies it
		data = data[n:]
	}
	for _, a := range addrs() {
		s.interned = append(s.interned, internEntry{addr: a})
	}
	s.staticsObj = addrs()
	s.classMir = addrs()
	s.methodMir = addrs()
	s.dict = heap.Addr(uv())
	s.threadsArr = heap.Addr(uv())
	s.captureBuf = heap.Addr(uv())
	hasEngine := bl()
	if fail != nil {
		return nil, fail
	}
	if hasEngine {
		es, _, err := core.DecodeEngineSnapshot(data)
		if err != nil {
			return nil, err
		}
		s.engine = es
		if vm.eng.Mode() != core.ModeReplay {
			return nil, fmt.Errorf("vm: checkpoint carries replay state but this VM is in %v mode", vm.eng.Mode())
		}
	}
	// Structural sanity: the snapshot must describe this program.
	if len(s.staticsObj) != vm.numClasses || len(s.methodMir) != len(vm.prog.Methods) {
		return nil, fmt.Errorf("vm: checkpoint shape mismatch (classes %d/%d, methods %d/%d)",
			len(s.staticsObj), vm.numClasses, len(s.methodMir), len(vm.prog.Methods))
	}
	if len(s.interned) < len(vm.interned) {
		// The fresh VM interned only the program constants; a checkpoint
		// can carry more (runtime-interned), never fewer.
		return nil, fmt.Errorf("vm: checkpoint interned-string table too small")
	}
	// Rebuild the intern bookkeeping for strings the checkpointed run
	// interned beyond the static pool: their text is unknown, but their
	// heap storage is in the image. Since intern only grows via program
	// constants and those are pre-interned identically, sizes normally
	// match; reject exotic mismatches instead of guessing.
	if len(s.interned) != len(vm.interned) {
		return nil, fmt.Errorf("vm: checkpoint interned-string table mismatch (%d vs %d)", len(s.interned), len(vm.interned))
	}
	return s, nil
}

// ErrCorruptCheckpoint stops a VM restored by RestoreBytes whose execution
// meets state no program can produce. RestoreBytes checks a checkpoint's
// framing, shape and heap geometry, but not every frame, field and queue
// of the program state it carries; such an inconsistency surfaces only
// when execution reaches it, and Run, RunUntil and Step then report it as
// this error instead of panicking.
var ErrCorruptCheckpoint = errors.New("vm: corrupt checkpoint state")

// containCorruption is deferred by Run, RunUntil and Step on a VM
// restored from checkpoint bytes: it turns a panic into a done run that
// failed with ErrCorruptCheckpoint.
func (vm *VM) containCorruption(done *bool, err *error) {
	if r := recover(); r != nil {
		vm.err = fmt.Errorf("%w at event %d: %v", ErrCorruptCheckpoint, vm.events, r)
		*done, *err = true, vm.err
	}
}
