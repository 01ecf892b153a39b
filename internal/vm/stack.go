package vm

import (
	"dejavu/internal/bytecode"
	"dejavu/internal/heap"
	"dejavu/internal/threads"
)

// Activation stacks live in the VM heap as int64 arrays, as in Jalapeño.
// The Go-side Tags slice is the reference map: Tags[i] marks slot i as
// holding a reference, so the collector can trace and update it.
//
// Operand pushes and pops are fpush and fpop (fastpath.go). This file
// holds the frame layer: pushFrame reserves each frame's verified
// footprint at entry, the only place an interpreter stack grows, and
// popFrame, spawnThread and the thread mirrors build on it.

func (vm *VM) setSlot(t *threads.Thread, idx int, val uint64, isRef bool) {
	vm.h.StoreWord(t.StackSeg, idx, val)
	t.Tags[idx] = isRef
}

func (vm *VM) slot(t *threads.Thread, idx int) (uint64, bool) {
	return vm.h.LoadWord(t.StackSeg, idx), t.Tags[idx]
}

// popPrim pops a value that must be primitive. The kind checks of these
// typed wrappers are live: the verifier admits VUnknown operands.
func (vm *VM) popPrim(t *threads.Thread) (int64, error) {
	v, tag := vm.fpop(t)
	if tag {
		return 0, errWantPrim
	}
	return int64(v), nil
}

// popRef pops a value that must be a reference (possibly null).
func (vm *VM) popRef(t *threads.Thread) (heap.Addr, error) {
	v, tag := vm.fpop(t)
	if !tag {
		return 0, errWantRef
	}
	return heap.Addr(v), nil
}

// popObj pops a non-null reference.
func (vm *VM) popObj(t *threads.Thread) (heap.Addr, error) {
	a, err := vm.popRef(t)
	if err == nil && a == 0 {
		err = errNullRef
	}
	return a, err
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
	// MaxStack + headroom) in one step, the same deterministic function
	// of the program in record and replay.
	need := t.SP + vm.frameNeed[m.ID]
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
func (vm *VM) popFrame(t *threads.Thread) (done bool, resumePC int) {
	fp := t.FP
	callerFP := int(int64(vm.h.LoadWord(t.StackSeg, fp+FrameCallerFP)))
	savedSP := int(int64(vm.h.LoadWord(t.StackSeg, fp+FrameSavedSP)))
	if callerFP < 0 {
		t.SP = 0
		t.FP = -1
		return true, 0
	}
	t.SP = savedSP
	t.FP = callerFP
	resumePC = int(int64(vm.h.LoadWord(t.StackSeg, callerFP+FramePC))) + 1
	return false, resumePC
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
// identical whether or not a debugger is watching. Once a mirror has
// been flushed (MirValid), only the words whose shadow differs are
// stored: skipping an equal-valued store never alters heap bytes.
func (vm *VM) flushMirror(t *threads.Thread) {
	o := t.MirrorObj
	if o == 0 {
		return
	}
	all := !t.MirValid
	if all || t.MirFP != t.FP {
		vm.h.StoreWord(o, MThreadFP, uint64(int64(t.FP)))
		t.MirFP = t.FP
	}
	if all || t.MirSP != t.SP {
		vm.h.StoreWord(o, MThreadSP, uint64(int64(t.SP)))
		t.MirSP = t.SP
	}
	if all || t.MirState != t.State {
		vm.h.StoreWord(o, MThreadState, uint64(t.State))
		t.MirState = t.State
	}
	if all || t.MirYields != t.YieldCount {
		vm.h.StoreWord(o, MThreadYields, t.YieldCount)
		t.MirYields = t.YieldCount
	}
	t.MirValid = true
}

// flushAllMirrors brings every stale thread mirror up to date: the
// running thread's, whose FP, SP and yield count move as it runs, and
// those of the threads the scheduler lists as changed since the last
// flush. No other mirror can be stale: a thread only leaves the CPU
// through a State write, which lists it, and nothing else a mirror holds
// moves while its thread is off the CPU. It runs only where a reader can
// look: slice exit, dispatch, Native, and after every Step.
func (vm *VM) flushAllMirrors() {
	if t := vm.sched.Current(); t != nil {
		vm.flushMirror(t)
	}
	for _, id := range vm.sched.TakeChanged() {
		if t, ok := vm.sched.Thread(id); ok {
			vm.flushMirror(t)
		}
	}
}
