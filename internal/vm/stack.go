package vm

import (
	"fmt"

	"dejavu/internal/bytecode"
	"dejavu/internal/heap"
	"dejavu/internal/threads"
)

// Activation stacks live in the VM heap as int64 arrays, as in Jalapeño.
// The Go-side Tags slice is the reference map: Tags[i] marks slot i as
// holding a reference, so the collector can trace and update it.

func (vm *VM) setSlot(t *threads.Thread, idx int, val uint64, isRef bool) {
	vm.h.StoreWord(t.StackSeg, idx, val)
	t.Tags[idx] = isRef
}

func (vm *VM) slot(t *threads.Thread, idx int) (uint64, bool) {
	return vm.h.LoadWord(t.StackSeg, idx), t.Tags[idx]
}

func (vm *VM) push(t *threads.Thread, val uint64, isRef bool) error {
	if t.SP >= vm.h.Len(t.StackSeg) {
		// Growth is not allowed mid-instruction: a collection here could
		// move objects whose addresses the interpreter holds in Go locals
		// (popped but untagged slots). Both drivers guarantee headroom
		// at every instruction boundary, so reaching this means an opcode
		// pushed more than the guaranteed margin — fail loudly.
		return fmt.Errorf("internal: operand stack overflow mid-instruction (op pushed past the headroom margin)")
	}
	vm.setSlot(t, t.SP, val, isRef)
	t.SP++
	return nil
}

func (vm *VM) pop(t *threads.Thread) (uint64, bool, error) {
	if t.SP <= t.FP+FrameHeader {
		return 0, false, fmt.Errorf("operand stack underflow")
	}
	t.SP--
	v, tag := vm.slot(t, t.SP)
	t.Tags[t.SP] = false
	return v, tag, nil
}

// popPrim pops a value that must be primitive.
func (vm *VM) popPrim(t *threads.Thread) (int64, error) {
	v, tag, err := vm.pop(t)
	if err != nil {
		return 0, err
	}
	if tag {
		return 0, fmt.Errorf("type error: expected primitive, found reference")
	}
	return int64(v), nil
}

// popRef pops a value that must be a reference (possibly null).
func (vm *VM) popRef(t *threads.Thread) (heap.Addr, error) {
	v, tag, err := vm.pop(t)
	if err != nil {
		return 0, err
	}
	if !tag {
		return 0, fmt.Errorf("type error: expected reference, found primitive")
	}
	return heap.Addr(v), nil
}

// popObj pops a non-null reference.
func (vm *VM) popObj(t *threads.Thread) (heap.Addr, error) {
	a, err := vm.popRef(t)
	if err != nil {
		return 0, err
	}
	if a == 0 {
		return 0, fmt.Errorf("null reference")
	}
	return a, nil
}

// growStack reallocates the thread's stack segment — the paper's "stack
// overflow" event. The new segment is a fresh heap allocation, so growth
// points must coincide between record and replay; the engine's eager
// growth policy (§2.4) makes them coincide despite the modes' differing
// instrumentation frames.
func (vm *VM) growStack(t *threads.Thread, minFree int) error {
	vm.stackGrows++
	cur := vm.h.Len(t.StackSeg)
	newLen := cur * 2
	if newLen < cur+minFree {
		newLen = cur + minFree
	}
	// The allocation may collect; t.StackSeg is updated by the collector,
	// so the source segment must be re-read afterwards.
	na, err := vm.allocArray(heap.KindInt64Arr, newLen)
	if err != nil {
		return err
	}
	old := t.StackSeg
	for i := 0; i < t.SP; i++ {
		vm.h.StoreWord(na, i, vm.h.LoadWord(old, i))
	}
	t.StackSeg = na
	newTags := make([]bool, newLen)
	copy(newTags, t.Tags)
	t.Tags = newTags
	if t.MirrorObj != 0 {
		vm.h.StoreWord(t.MirrorObj, MThreadStack, uint64(na))
	}
	return nil
}

// pushFrame activates method m on t. Arguments are the tagged slots at
// [argStart, argStart+m.NArgs) of t's own stack; they are copied into the
// callee's locals and logically popped (SavedSP = argStart).
func (vm *VM) pushFrame(t *threads.Thread, m *bytecode.Method, argStart int) error {
	// Reserve the verifier-proven frame footprint (header + locals +
	// MaxStack + headroom) in one step; the flat constant is the fallback
	// for unverifiable programs. Either way the reservation is the same
	// deterministic function of the program in record and replay.
	slots := FrameHeader + m.NLocals + 8
	if vm.frameNeed != nil {
		slots = vm.frameNeed[m.ID]
	}
	need := t.SP + slots
	if need > vm.h.Len(t.StackSeg) {
		if err := vm.growStack(t, need-t.SP); err != nil {
			return err
		}
	}
	fp := t.SP
	vm.setSlot(t, fp+FrameCallerFP, uint64(int64(t.FP)), false)
	vm.setSlot(t, fp+FrameMethod, uint64(m.ID), false)
	vm.setSlot(t, fp+FramePC, 0, false)
	vm.setSlot(t, fp+FrameSavedSP, uint64(int64(argStart)), false)
	base := fp + FrameHeader
	for i := 0; i < m.NArgs; i++ {
		v, tag := vm.slot(t, argStart+i)
		vm.setSlot(t, base+i, v, tag)
	}
	for i := m.NArgs; i < m.NLocals; i++ {
		vm.setSlot(t, base+i, 0, false)
	}
	t.FP = fp
	t.SP = base + m.NLocals
	return nil
}

// popFrame returns from the current frame. It reports done=true when the
// bottom frame was popped (the thread terminates); otherwise the caller
// resumes at resumePC.
func (vm *VM) popFrame(t *threads.Thread) (done bool, resumePC int, err error) {
	fp := t.FP
	callerFP := int(int64(vm.h.LoadWord(t.StackSeg, fp+FrameCallerFP)))
	savedSP := int(int64(vm.h.LoadWord(t.StackSeg, fp+FrameSavedSP)))
	if callerFP < 0 {
		t.SP = 0
		t.FP = -1
		return true, 0, nil
	}
	t.SP = savedSP
	t.FP = callerFP
	resumePC = int(int64(vm.h.LoadWord(t.StackSeg, callerFP+FramePC))) + 1
	return false, resumePC, nil
}

// frameMethod returns the method executing in t's current frame.
func (vm *VM) frameMethod(t *threads.Thread) *bytecode.Method {
	id := int(vm.h.LoadWord(t.StackSeg, t.FP+FrameMethod))
	return vm.prog.Methods[id]
}

// spawnThread creates a thread that will execute methodID. When src is
// non-nil, the method's arguments are copied from src's stack at
// [argStart, argStart+NArgs); the caller pops them afterwards.
func (vm *VM) spawnThread(methodID int, src *threads.Thread, argStart int) (*threads.Thread, error) {
	m := vm.prog.Methods[methodID]
	t := vm.sched.NewThread()
	seg, err := vm.allocArray(heap.KindInt64Arr, vm.cfg.StackSlots)
	if err != nil {
		return nil, err
	}
	t.StackSeg = seg
	t.Tags = make([]bool, vm.cfg.StackSlots)
	t.FP = -1
	t.SP = 0

	mirror, err := vm.allocObject(vm.tidVMThread, MThreadSlots)
	if err != nil {
		return nil, err
	}
	t.MirrorObj = mirror
	vm.h.StoreWord(mirror, MThreadID, uint64(t.ID))
	vm.h.StoreWord(mirror, MThreadStack, uint64(t.StackSeg))

	// Grow the VM_Thread registry array (copy-on-grow keeps it a plain
	// ref array a remote tool can walk).
	old := vm.threadsArr
	n := vm.h.Len(old)
	na, err := vm.allocArray(heap.KindRefArr, n+1)
	if err != nil {
		return nil, err
	}
	old = vm.threadsArr // re-read: the allocation may have moved it
	for i := 0; i < n; i++ {
		vm.h.StoreWord(na, i, vm.h.LoadWord(old, i))
	}
	vm.h.StoreWord(na, n, uint64(t.MirrorObj))
	vm.threadsArr = na

	// Bottom frame. Arguments, if any, come from the spawning thread.
	if err := vm.pushFrame(t, m, t.SP); err != nil {
		return nil, err
	}
	if src != nil && m.NArgs > 0 {
		base := t.FP + FrameHeader
		for i := 0; i < m.NArgs; i++ {
			v, tag := vm.slot(src, argStart+i)
			vm.setSlot(t, base+i, v, tag)
		}
	}
	vm.sched.Enqueue(t)
	vm.flushMirror(t)
	return t, nil
}

// flushMirror writes t's volatile execution state into its heap mirror so
// out-of-process tools see a consistent image. It runs at the same
// deterministic points in record and replay, keeping the heap image
// identical whether or not a debugger is watching.
func (vm *VM) flushMirror(t *threads.Thread) {
	if t.MirrorObj == 0 {
		return
	}
	if t.MirValid && t.MirFP == t.FP && t.MirSP == t.SP &&
		t.MirState == t.State && t.MirYields == t.YieldCount {
		return // mirror already holds exactly these values
	}
	vm.h.StoreWord(t.MirrorObj, MThreadFP, uint64(int64(t.FP)))
	vm.h.StoreWord(t.MirrorObj, MThreadSP, uint64(int64(t.SP)))
	vm.h.StoreWord(t.MirrorObj, MThreadState, uint64(t.State))
	vm.h.StoreWord(t.MirrorObj, MThreadYields, t.YieldCount)
	t.MirFP, t.MirSP = t.FP, t.SP
	t.MirState, t.MirYields = t.State, t.YieldCount
	t.MirValid = true
}

func (vm *VM) flushAllMirrors() {
	for _, t := range vm.sched.Threads() {
		vm.flushMirror(t)
	}
}
