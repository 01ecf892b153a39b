package vm

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"time"

	"dejavu/internal/bytecode"
	"dejavu/internal/core"
	"dejavu/internal/heap"
	"dejavu/internal/threads"
)

// VMError wraps a runtime trap with its execution context.
type VMError struct {
	ThreadID int
	Method   string
	PC       int
	Line     int
	Reason   error
}

func (e *VMError) Error() string {
	return fmt.Sprintf("vm: trap in thread %d at %s:%d (line %d): %v",
		e.ThreadID, e.Method, e.PC, e.Line, e.Reason)
}

func (e *VMError) Unwrap() error { return e.Reason }

// ErrEventBudget aborts runs that exceed Config.MaxEvents.
var ErrEventBudget = errors.New("vm: event budget exhausted")

func (vm *VM) trap(t *threads.Thread, m *bytecode.Method, pc int, reason error) error {
	line := 0
	if pc < len(m.Lines) {
		line = int(m.Lines[pc])
	}
	return &VMError{ThreadID: t.ID, Method: m.FullName(), PC: pc, Line: line, Reason: reason}
}

// Run executes until the program halts or errs. With dispatch left on
// auto, the token-threaded fast loop runs whole scheduling slices at a
// time, with or without a journal attached: it polls journal rotation
// only at the boundaries where the answer can have changed, which are
// exactly the boundaries where Step would rotate. DispatchLegacy drives
// the reference Step loop instead. Both produce bit-identical traces,
// journals, checkpoints, digests and switch schedules.
func (vm *VM) Run() error {
	if vm.cfg.Dispatch == DispatchAuto {
		return vm.runFast()
	}
	for {
		done, err := vm.Step()
		if err != nil {
			return err
		}
		if done {
			return nil
		}
	}
}

// Step executes exactly one instruction (dispatching threads and expiring
// timers as needed first) and returns done=true when the program has
// terminated. Debuggers drive the VM through Step so every stop lands on
// an instruction boundary. Step always runs the legacy switch loop.
func (vm *VM) Step() (done bool, err error) {
	// Segmented-journal rotation happens here, at the instruction boundary
	// before any dispatching: the snapshot taken now is exactly the state a
	// seeded replay restores, and every event the coming dispatch or
	// instruction logs lands in the new segment.
	if vm.rotationDue() {
		if err := vm.rotateJournal(); err != nil {
			return true, err
		}
	}
	if done, err := vm.EnsureDispatched(); done || err != nil {
		return done, err
	}
	t := vm.sched.Current()
	if vm.cfg.MaxEvents > 0 && vm.events >= vm.cfg.MaxEvents {
		vm.err = ErrEventBudget
		return true, vm.err
	}
	if err := vm.execOne(t); err != nil {
		vm.err = err
		return true, err
	}
	if e := vm.eng.Err(); e != nil {
		if errors.Is(e, core.ErrStalled) {
			// A stall is a watchdog abort, not a divergence: the trace may
			// be fine and the replay simply stuck.
			vm.err = fmt.Errorf("vm: %w", e)
		} else {
			vm.err = fmt.Errorf("vm: replay diverged after %d events: %w", vm.events, e)
		}
		return true, vm.err
	}
	return vm.halted, nil
}

// rotationDue clears the fast loop's poll request and reports whether the
// journal wants a rotation at this instruction boundary. Callers must
// have flushed any deferred state (frame pc, thread mirrors) before they
// answer with rotateJournal.
func (vm *VM) rotationDue() bool {
	vm.pollDue, vm.checkAt = false, vm.budgetAt()
	return vm.cfg.Journal != nil && vm.err == nil && !vm.halted &&
		vm.nestedDepth == 0 && vm.cfg.Journal.RotatePending()
}

// budgetAt is the event count at which the MaxEvents budget runs out.
func (vm *VM) budgetAt() uint64 {
	if vm.cfg.MaxEvents > 0 {
		return vm.cfg.MaxEvents
	}
	return math.MaxUint64
}

// journalLogged notes that the engine may just have written to the
// journal's data stream. RotatePending can only turn true after such a
// write, so the fast loop polls at its next instruction boundary and
// nowhere else inside a slice. Journal-less VMs never set the request.
func (vm *VM) journalLogged() {
	if vm.cfg.Journal != nil {
		vm.pollDue, vm.checkAt = true, 0
	}
}

// readClock is the VM's one wall-clock read: recorded, replayed, and
// flagged to the fast loop as a journal write.
func (vm *VM) readClock() int64 {
	v := vm.eng.ClockRead()
	vm.journalLogged()
	return v
}

// rotateJournal seals the current journal segment with a checkpoint of the
// VM as it stands at this instruction boundary. Only meaningful while
// recording — a replaying VM never rotates (its journal is read-only).
// A failure is sticky: it becomes the run's error.
func (vm *VM) rotateJournal() error {
	nyp, ok := vm.eng.RecordPos()
	if !ok {
		return nil
	}
	snap, err := vm.Snapshot()
	if err == nil {
		err = vm.cfg.Journal.Rotate(snap.Encode(vm.progHash), vm.events, nyp)
	}
	if err != nil {
		vm.err = fmt.Errorf("vm: journal rotation: %w", err)
		return vm.err
	}
	return nil
}

// EnsureDispatched brings the VM to a state where CurrentSite is valid —
// expiring timers and dispatching the next thread as needed — without
// executing any program instruction. Debuggers call it before checking
// breakpoints; Step calls it implicitly.
func (vm *VM) EnsureDispatched() (done bool, err error) {
	if vm.err != nil {
		return true, vm.err
	}
	if vm.halted {
		return true, nil
	}
	for vm.sched.Current() == nil {
		vm.dispatch()
		if vm.err != nil {
			return true, vm.err
		}
		if vm.halted {
			return true, nil
		}
	}
	return false, nil
}

// dispatch picks the next runnable thread, expiring timers first. Timer
// expiry is driven by clock reads that flow through the DejaVu engine, so
// it reproduces exactly under replay (§2.2). Returns nil when the VM must
// idle (some thread sleeps) — the caller loops.
func (vm *VM) dispatch() *threads.Thread {
	if _, ok := vm.sched.NextWake(); ok {
		now := vm.readClock()
		if e := vm.eng.Err(); e != nil {
			vm.err = fmt.Errorf("vm: replay diverged in timer check: %w", e)
			return nil
		}
		vm.sched.ExpireTimers(now)
	}
	t := vm.sched.PickNext()
	if t != nil {
		vm.eng.NotePosition(t.ID)
		vm.flushAllMirrors()
		if vm.cfg.Observer != nil {
			vm.cfg.Observer.OnSwitch(t.ID)
		}
		return t
	}
	if vm.sched.LiveCount() == 0 {
		vm.halted = true
		return nil
	}
	if err := vm.sched.CheckDeadlock(); err != nil {
		vm.err = fmt.Errorf("%w\n%s", err, vm.sched.DeadlockReport())
		return nil
	}
	// All live threads are sleeping or in timed waits: let wall time pass.
	// Replay consumes recorded clock values instead, so it never sleeps.
	if vm.cfg.IdleSleep > 0 && vm.eng.Mode() != core.ModeReplay {
		time.Sleep(vm.cfg.IdleSleep)
	}
	return nil
}

// control outcomes of one instruction.
type control int

const (
	ctrlNext   control = iota // fall through to pc+1
	ctrlJump                  // pc set explicitly
	ctrlCall                  // new frame pushed; pc handled
	ctrlSwitch                // current thread gave up the CPU
)

// execOne interprets a single instruction of t — one "event" in the
// paper's model.
// opHeadroom is the operand-stack margin guaranteed before each
// instruction: no opcode pushes more than this many values net, so the
// stack never grows (and the collector never runs) in the middle of an
// instruction while object addresses sit in interpreter locals.
const opHeadroom = 4

func (vm *VM) execOne(t *threads.Thread) error {
	if vm.h.Len(t.StackSeg)-t.SP < opHeadroom {
		// Grow at the instruction boundary, where every live value is in
		// a tagged slot the collector can see and update.
		if err := vm.growStack(t, opHeadroom+12); err != nil {
			return err
		}
	}
	m := vm.frameMethod(t)
	pc := int(int64(vm.h.LoadWord(t.StackSeg, t.FP+FramePC)))
	in := m.Code[pc]
	vm.events++
	t.EventCount++
	if vm.cfg.Observer != nil {
		vm.cfg.Observer.OnStep(t.ID, m.ID, pc, in.Op)
	}

	ctrl, nextPC, err := vm.dispatchOp(t, m, pc, in)
	if err != nil {
		return vm.trap(t, m, pc, err)
	}

	if ctrl == ctrlNext {
		nextPC = pc + 1
		ctrl = ctrlJump
	}
	switch ctrl {
	case ctrlJump, ctrlSwitch:
		// Save the resume pc — for the running thread, a blocked thread
		// (it resumes after this instruction), or a preempted one. A
		// terminated thread has no frame left to update.
		if t.State != threads.Terminated {
			vm.h.StoreWord(t.StackSeg, t.FP+FramePC, uint64(int64(nextPC)))
		}
	case ctrlCall:
		// pushFrame already set the callee pc to 0; the caller's header
		// still holds the call site (return resumes at +1).
	}

	if t.State == threads.Running {
		vm.flushMirror(t)
	} else {
		vm.flushAllMirrors()
	}
	return nil
}

// yieldHere runs the DejaVu yield-point instrumentation; if a preemptive
// switch is due, the current thread is moved to the back of the ready
// queue. Inside a nested (callback) interpretation the switch is deferred
// to the next outer yield point, like a pending threadswitch bit.
func (vm *VM) yieldHere(t *threads.Thread) (switched bool) {
	doSwitch := vm.eng.AtYieldPoint(t)
	if vm.nestedDepth > 0 {
		if doSwitch {
			vm.deferred = true
		}
		return false
	}
	if vm.deferred {
		vm.deferred = false
		doSwitch = true
	}
	if doSwitch {
		vm.sched.Preempt(t)
		return true
	}
	return false
}

// dispatchOp executes one opcode. It returns how control continues and,
// for ctrlJump/ctrlSwitch, the explicit next pc.
func (vm *VM) dispatchOp(t *threads.Thread, m *bytecode.Method, pc int, in bytecode.Instr) (control, int, error) {
	h := vm.h
	switch in.Op {
	case bytecode.Nop:
		return ctrlNext, 0, nil

	case bytecode.IConst:
		return ctrlNext, 0, vm.push(t, uint64(int64(in.A)), false)
	case bytecode.LConst:
		return ctrlNext, 0, vm.push(t, uint64(vm.prog.Ints[in.A]), false)
	case bytecode.SConst:
		a, err := vm.intern(vm.prog.Strings[in.A]) // pre-interned: no alloc
		if err != nil {
			return 0, 0, err
		}
		return ctrlNext, 0, vm.push(t, uint64(a), true)
	case bytecode.Null:
		return ctrlNext, 0, vm.push(t, 0, true)

	case bytecode.Pop:
		_, _, err := vm.pop(t)
		return ctrlNext, 0, err
	case bytecode.Dup:
		if t.SP <= t.FP+FrameHeader {
			return 0, 0, fmt.Errorf("operand stack underflow")
		}
		v, tag := vm.slot(t, t.SP-1)
		return ctrlNext, 0, vm.push(t, v, tag)
	case bytecode.Swap:
		b, tb, err := vm.pop(t)
		if err != nil {
			return 0, 0, err
		}
		a, ta, err := vm.pop(t)
		if err != nil {
			return 0, 0, err
		}
		if err := vm.push(t, b, tb); err != nil {
			return 0, 0, err
		}
		return ctrlNext, 0, vm.push(t, a, ta)

	case bytecode.Load:
		v, tag := vm.slot(t, t.FP+FrameHeader+int(in.A))
		return ctrlNext, 0, vm.push(t, v, tag)
	case bytecode.Store:
		v, tag, err := vm.pop(t)
		if err != nil {
			return 0, 0, err
		}
		vm.setSlot(t, t.FP+FrameHeader+int(in.A), v, tag)
		return ctrlNext, 0, nil

	case bytecode.Add, bytecode.Sub, bytecode.Mul, bytecode.Div, bytecode.Mod,
		bytecode.And, bytecode.Or, bytecode.Xor, bytecode.Shl, bytecode.Shr:
		b, err := vm.popPrim(t)
		if err != nil {
			return 0, 0, err
		}
		a, err := vm.popPrim(t)
		if err != nil {
			return 0, 0, err
		}
		r, err := arith(in.Op, a, b)
		if err != nil {
			return 0, 0, err
		}
		return ctrlNext, 0, vm.push(t, uint64(r), false)

	case bytecode.Neg:
		a, err := vm.popPrim(t)
		if err != nil {
			return 0, 0, err
		}
		return ctrlNext, 0, vm.push(t, uint64(-a), false)
	case bytecode.Not:
		a, err := vm.popPrim(t)
		if err != nil {
			return 0, 0, err
		}
		return ctrlNext, 0, vm.push(t, uint64(^a), false)

	case bytecode.CmpEq, bytecode.CmpNe:
		b, tb, err := vm.pop(t)
		if err != nil {
			return 0, 0, err
		}
		a, ta, err := vm.pop(t)
		if err != nil {
			return 0, 0, err
		}
		if ta != tb {
			return 0, 0, fmt.Errorf("type error: comparing reference with primitive")
		}
		r := boolWord(a == b)
		if in.Op == bytecode.CmpNe {
			r = boolWord(a != b)
		}
		return ctrlNext, 0, vm.push(t, r, false)

	case bytecode.CmpLt, bytecode.CmpLe, bytecode.CmpGt, bytecode.CmpGe:
		b, err := vm.popPrim(t)
		if err != nil {
			return 0, 0, err
		}
		a, err := vm.popPrim(t)
		if err != nil {
			return 0, 0, err
		}
		var r bool
		switch in.Op {
		case bytecode.CmpLt:
			r = a < b
		case bytecode.CmpLe:
			r = a <= b
		case bytecode.CmpGt:
			r = a > b
		case bytecode.CmpGe:
			r = a >= b
		}
		return ctrlNext, 0, vm.push(t, boolWord(r), false)

	case bytecode.Jmp:
		return vm.branch(t, pc, int(in.A), true)
	case bytecode.Jz, bytecode.Jnz:
		v, err := vm.popPrim(t)
		if err != nil {
			return 0, 0, err
		}
		taken := (v == 0) == (in.Op == bytecode.Jz)
		if !taken {
			return ctrlNext, 0, nil
		}
		return vm.branch(t, pc, int(in.A), true)

	case bytecode.Ret, bytecode.RetV:
		var rv uint64
		var rtag bool
		if in.Op == bytecode.RetV {
			var err error
			rv, rtag, err = vm.pop(t)
			if err != nil {
				return 0, 0, err
			}
		}
		done, resume, err := vm.popFrame(t)
		if err != nil {
			return 0, 0, err
		}
		if done {
			vm.sched.Terminate(t)
			return ctrlSwitch, 0, nil
		}
		if in.Op == bytecode.RetV {
			if err := vm.push(t, rv, rtag); err != nil {
				return 0, 0, err
			}
		}
		return ctrlJump, resume, nil

	case bytecode.Call:
		return vm.doCall(t, pc, vm.prog.Methods[in.A], int(in.B))
	case bytecode.CallV:
		name := vm.prog.Strings[in.A]
		nargs := int(in.B)
		if nargs < 1 {
			return 0, 0, fmt.Errorf("callv needs a receiver")
		}
		if t.SP-nargs < t.FP+FrameHeader {
			return 0, 0, fmt.Errorf("operand stack underflow")
		}
		rv, rtag := vm.slot(t, t.SP-nargs)
		if !rtag || rv == 0 {
			return 0, 0, fmt.Errorf("callv %s on null or primitive receiver", name)
		}
		if vm.isStub(heap.Addr(rv)) { // §3.4: invokevirtual on a remote object
			mid, err := vm.remoteCallTarget(heap.Addr(rv), name, nargs)
			if err != nil {
				return 0, 0, err
			}
			return vm.doCall(t, pc, vm.prog.Methods[mid], nargs)
		}
		typeID := h.TypeID(heap.Addr(rv))
		if h.KindOf(heap.Addr(rv)) != heap.KindObject || typeID >= vm.numClasses {
			return 0, 0, fmt.Errorf("callv %s receiver is not a program object", name)
		}
		target, ok := vm.prog.Classes[typeID].Method(name)
		if !ok {
			return 0, 0, fmt.Errorf("class %s has no method %s", vm.prog.Classes[typeID].Name, name)
		}
		if target.NArgs != nargs {
			return 0, 0, fmt.Errorf("callv %s: %d args passed, %d expected", name, nargs, target.NArgs)
		}
		return vm.doCall(t, pc, target, nargs)

	case bytecode.Native:
		return vm.doNative(t, vm.prog.Strings[in.A], int(in.B))

	case bytecode.New:
		a, err := vm.allocObject(int(in.A), len(vm.prog.Classes[in.A].Fields))
		if err != nil {
			return 0, 0, err
		}
		return ctrlNext, 0, vm.push(t, uint64(a), true)

	case bytecode.GetF:
		obj, err := vm.popObj(t)
		if err != nil {
			return 0, 0, err
		}
		slotIdx := int(in.A)
		if vm.isStub(obj) { // §3.4: getf extended to remote objects
			v, tag, err := vm.remoteGetF(obj, slotIdx)
			if err != nil {
				return 0, 0, err
			}
			return ctrlNext, 0, vm.push(t, v, tag)
		}
		isRef, err := vm.fieldRefness(obj, slotIdx)
		if err != nil {
			return 0, 0, err
		}
		v := h.LoadWord(obj, slotIdx)
		if vm.cfg.MemHook != nil {
			vm.cfg.MemHook.OnHeapAccess(t.ID, obj, slotIdx, false, v)
		}
		return ctrlNext, 0, vm.push(t, v, isRef)

	case bytecode.PutF:
		v, tag, err := vm.pop(t)
		if err != nil {
			return 0, 0, err
		}
		obj, err := vm.popObj(t)
		if err != nil {
			return 0, 0, err
		}
		slotIdx := int(in.A)
		if vm.isStub(obj) {
			return 0, 0, fmt.Errorf("remote objects are read-only (putf on stub)")
		}
		isRef, err := vm.fieldRefness(obj, slotIdx)
		if err != nil {
			return 0, 0, err
		}
		if isRef != tag {
			return 0, 0, fmt.Errorf("type error: storing %s into %s field", valKind(tag), valKind(isRef))
		}
		if vm.cfg.MemHook != nil {
			vm.cfg.MemHook.OnHeapAccess(t.ID, obj, slotIdx, true, v)
		}
		h.StoreWord(obj, slotIdx, v)
		return ctrlNext, 0, nil

	case bytecode.GetS:
		obj := vm.staticsObj[in.A]
		isRef := vm.prog.Classes[in.A].Statics[in.B].IsRef
		v := h.LoadWord(obj, int(in.B))
		if vm.cfg.MemHook != nil {
			vm.cfg.MemHook.OnHeapAccess(t.ID, obj, int(in.B), false, v)
		}
		return ctrlNext, 0, vm.push(t, v, isRef)

	case bytecode.PutS:
		v, tag, err := vm.pop(t)
		if err != nil {
			return 0, 0, err
		}
		isRef := vm.prog.Classes[in.A].Statics[in.B].IsRef
		if isRef != tag {
			return 0, 0, fmt.Errorf("type error: storing %s into %s static", valKind(tag), valKind(isRef))
		}
		obj := vm.staticsObj[in.A]
		if vm.cfg.MemHook != nil {
			vm.cfg.MemHook.OnHeapAccess(t.ID, obj, int(in.B), true, v)
		}
		h.StoreWord(obj, int(in.B), v)
		return ctrlNext, 0, nil

	case bytecode.NewArr:
		n, err := vm.popPrim(t)
		if err != nil {
			return 0, 0, err
		}
		if n < 0 || n > 1<<28 {
			return 0, 0, fmt.Errorf("bad array length %d", n)
		}
		var kind heap.Kind
		switch in.A {
		case bytecode.KindInt64:
			kind = heap.KindInt64Arr
		case bytecode.KindRef:
			kind = heap.KindRefArr
		case bytecode.KindByte:
			kind = heap.KindByteArr
		}
		a, err := vm.allocArray(kind, int(n))
		if err != nil {
			return 0, 0, err
		}
		return ctrlNext, 0, vm.push(t, uint64(a), true)

	case bytecode.ALoad:
		idx, err := vm.popPrim(t)
		if err != nil {
			return 0, 0, err
		}
		arr, err := vm.popObj(t)
		if err != nil {
			return 0, 0, err
		}
		if vm.isStub(arr) { // §3.4: aload extended to remote arrays
			v, tag, err := vm.remoteALoad(arr, int(idx))
			if err != nil {
				return 0, 0, err
			}
			return ctrlNext, 0, vm.push(t, v, tag)
		}
		if err := h.CheckBounds(arr, int(idx)); err != nil {
			return 0, 0, err
		}
		var v uint64
		var tag bool
		switch h.KindOf(arr) {
		case heap.KindInt64Arr:
			v = h.LoadWord(arr, int(idx))
		case heap.KindRefArr:
			v, tag = h.LoadWord(arr, int(idx)), true
		case heap.KindByteArr:
			v = uint64(h.LoadByte(arr, int(idx)))
		default:
			return 0, 0, fmt.Errorf("aload on non-array")
		}
		if vm.cfg.MemHook != nil {
			vm.cfg.MemHook.OnHeapAccess(t.ID, arr, int(idx), false, v)
		}
		return ctrlNext, 0, vm.push(t, v, tag)

	case bytecode.AStore:
		v, tag, err := vm.pop(t)
		if err != nil {
			return 0, 0, err
		}
		idx, err := vm.popPrim(t)
		if err != nil {
			return 0, 0, err
		}
		arr, err := vm.popObj(t)
		if err != nil {
			return 0, 0, err
		}
		if vm.isStub(arr) {
			return 0, 0, fmt.Errorf("remote objects are read-only (astore on stub)")
		}
		if err := h.CheckBounds(arr, int(idx)); err != nil {
			return 0, 0, err
		}
		switch h.KindOf(arr) {
		case heap.KindInt64Arr:
			if tag {
				return 0, 0, fmt.Errorf("type error: reference into int array")
			}
			h.StoreWord(arr, int(idx), v)
		case heap.KindRefArr:
			if !tag {
				return 0, 0, fmt.Errorf("type error: primitive into ref array")
			}
			h.StoreWord(arr, int(idx), v)
		case heap.KindByteArr:
			if tag {
				return 0, 0, fmt.Errorf("type error: reference into byte array")
			}
			h.StoreByte(arr, int(idx), byte(v))
		default:
			return 0, 0, fmt.Errorf("astore on non-array")
		}
		if vm.cfg.MemHook != nil {
			vm.cfg.MemHook.OnHeapAccess(t.ID, arr, int(idx), true, v)
		}
		return ctrlNext, 0, nil

	case bytecode.ArrLen:
		arr, err := vm.popObj(t)
		if err != nil {
			return 0, 0, err
		}
		if vm.isStub(arr) { // §3.4: arrlen extended to remote arrays
			_, _, length, kind := vm.stubMeta(arr)
			if kind == heap.KindObject {
				return 0, 0, fmt.Errorf("remote arrlen on non-array")
			}
			return ctrlNext, 0, vm.push(t, uint64(length), false)
		}
		if h.KindOf(arr) == heap.KindObject {
			return 0, 0, fmt.Errorf("arrlen on non-array")
		}
		return ctrlNext, 0, vm.push(t, uint64(h.Len(arr)), false)

	case bytecode.InstOf:
		a, err := vm.popRef(t)
		if err != nil {
			return 0, 0, err
		}
		if vm.isStub(a) { // §3.4: instof consults the remote type
			_, typeID, _, kind := vm.stubMeta(a)
			r := kind == heap.KindObject && typeID == int(in.A)
			return ctrlNext, 0, vm.push(t, boolWord(r), false)
		}
		r := a != 0 && h.KindOf(a) == heap.KindObject && h.TypeID(a) == int(in.A)
		return ctrlNext, 0, vm.push(t, boolWord(r), false)

	case bytecode.MonEnter:
		obj, err := vm.popObj(t)
		if err != nil {
			return 0, 0, err
		}
		if vm.isStub(obj) {
			return 0, 0, fmt.Errorf("cannot synchronize on a remote object")
		}
		if vm.cfg.SyncHook != nil {
			vm.cfg.SyncHook.OnMonitor(t.ID, obj, true)
		}
		if !vm.sched.MonEnter(t, obj) {
			if vm.nestedDepth > 0 {
				return 0, 0, fmt.Errorf("blocking monitorenter inside a native callback")
			}
			return ctrlNext, 0, nil // blocked; pc+1 saved for resume
		}
		return ctrlNext, 0, nil

	case bytecode.MonExit:
		obj, err := vm.popObj(t)
		if err != nil {
			return 0, 0, err
		}
		if err := vm.sched.MonExit(t, obj); err != nil {
			return 0, 0, err
		}
		if vm.cfg.SyncHook != nil {
			vm.cfg.SyncHook.OnMonitor(t.ID, obj, false)
		}
		vm.flushAllMirrors()
		return ctrlNext, 0, nil

	case bytecode.Wait, bytecode.TimedWait:
		if vm.nestedDepth > 0 {
			return 0, 0, fmt.Errorf("blocking wait inside a native callback")
		}
		wakeAt := int64(-1)
		if in.Op == bytecode.TimedWait {
			millis, err := vm.popPrim(t)
			if err != nil {
				return 0, 0, err
			}
			if millis < 0 {
				millis = 0
			}
			wakeAt = vm.readClock() + millis
		}
		obj, err := vm.popObj(t)
		if err != nil {
			return 0, 0, err
		}
		if err := vm.sched.Wait(t, obj, wakeAt); err != nil {
			return 0, 0, err
		}
		return ctrlNext, 0, nil

	case bytecode.Notify, bytecode.NotifyAll:
		obj, err := vm.popObj(t)
		if err != nil {
			return 0, 0, err
		}
		if in.Op == bytecode.Notify {
			_, err = vm.sched.Notify(t, obj)
		} else {
			_, err = vm.sched.NotifyAll(t, obj)
		}
		if err != nil {
			return 0, 0, err
		}
		vm.flushAllMirrors()
		return ctrlNext, 0, nil

	case bytecode.Spawn:
		target := vm.prog.Methods[in.A]
		nargs := int(in.B)
		if t.SP-nargs < t.FP+FrameHeader {
			return 0, 0, fmt.Errorf("operand stack underflow")
		}
		nt, err := vm.spawnThread(target.ID, t, t.SP-nargs)
		if err != nil {
			return 0, 0, err
		}
		// Pop the arguments now that they are copied.
		for i := 0; i < nargs; i++ {
			if _, _, err := vm.pop(t); err != nil {
				return 0, 0, err
			}
		}
		return ctrlNext, 0, vm.push(t, uint64(nt.ID), false)

	case bytecode.ThreadID:
		return ctrlNext, 0, vm.push(t, uint64(t.ID), false)

	case bytecode.YieldOp:
		// A voluntary yield is a deterministic thread switch: both modes
		// take it identically, so nothing is recorded.
		if vm.nestedDepth > 0 {
			return ctrlNext, 0, nil
		}
		vm.sched.Preempt(t)
		return ctrlSwitch, pc + 1, nil

	case bytecode.Sleep:
		if vm.nestedDepth > 0 {
			return 0, 0, fmt.Errorf("blocking sleep inside a native callback")
		}
		millis, err := vm.popPrim(t)
		if err != nil {
			return 0, 0, err
		}
		if millis < 0 {
			millis = 0
		}
		vm.sched.Sleep(t, vm.readClock()+millis)
		return ctrlNext, 0, nil

	case bytecode.Interrupt:
		tid, err := vm.popPrim(t)
		if err != nil {
			return 0, 0, err
		}
		target, ok := vm.sched.Thread(int(tid))
		if !ok {
			return 0, 0, fmt.Errorf("interrupt of unknown thread %d", tid)
		}
		vm.sched.Interrupt(target)
		vm.flushAllMirrors()
		return ctrlNext, 0, nil

	case bytecode.Print:
		v, err := vm.popPrim(t)
		if err != nil {
			return 0, 0, err
		}
		vm.printInt(v)
		return ctrlNext, 0, nil

	case bytecode.PrintS:
		a, err := vm.popObj(t)
		if err != nil {
			return 0, 0, err
		}
		if vm.isStub(a) { // §3.4: remote strings print transparently
			b, err := vm.remoteBytes(a)
			if err != nil {
				return 0, 0, err
			}
			vm.writeOutput(append(b, '\n'))
			return ctrlNext, 0, nil
		}
		if h.KindOf(a) != heap.KindByteArr {
			return 0, 0, fmt.Errorf("prints on non-string")
		}
		vm.printBuf = append(vm.printBuf[:0], h.Bytes(a)...)
		vm.printBuf = append(vm.printBuf, '\n')
		vm.writeOutput(vm.printBuf)
		return ctrlNext, 0, nil

	case bytecode.Assert:
		v, err := vm.popPrim(t)
		if err != nil {
			return 0, 0, err
		}
		if v == 0 {
			return 0, 0, fmt.Errorf("assertion failed")
		}
		return ctrlNext, 0, nil

	case bytecode.Halt:
		vm.halted = true
		return ctrlNext, 0, nil

	default:
		return 0, 0, fmt.Errorf("unimplemented opcode %s", in.Op)
	}
}

// branch handles a taken jump. A backward jump is a loop backedge and
// therefore a yield point (Jalapeño's placement).
func (vm *VM) branch(t *threads.Thread, pc, target int, taken bool) (control, int, error) {
	if !taken {
		return ctrlNext, 0, nil
	}
	if target <= pc { // loop backedge: yield point
		if vm.yieldHere(t) {
			return ctrlSwitch, target, nil
		}
	}
	return ctrlJump, target, nil
}

// doCall pushes the callee frame; method entry is a yield point (method
// prologue placement).
func (vm *VM) doCall(t *threads.Thread, pc int, target *bytecode.Method, nargs int) (control, int, error) {
	if t.SP-nargs < t.FP+FrameHeader {
		return 0, 0, fmt.Errorf("operand stack underflow")
	}
	// The caller's pc (the call site) is already flushed in its header.
	if err := vm.pushFrame(t, target, t.SP-nargs); err != nil {
		return 0, 0, err
	}
	// Method prologue yield point. If it preempts, the thread resumes in
	// the callee at pc 0, which is already what the new frame header says.
	vm.yieldHere(t)
	return ctrlCall, 0, nil
}

func arith(op bytecode.Opcode, a, b int64) (int64, error) {
	switch op {
	case bytecode.Add:
		return a + b, nil
	case bytecode.Sub:
		return a - b, nil
	case bytecode.Mul:
		return a * b, nil
	case bytecode.Div:
		if b == 0 {
			return 0, fmt.Errorf("division by zero")
		}
		return a / b, nil
	case bytecode.Mod:
		if b == 0 {
			return 0, fmt.Errorf("division by zero")
		}
		return a % b, nil
	case bytecode.And:
		return a & b, nil
	case bytecode.Or:
		return a | b, nil
	case bytecode.Xor:
		return a ^ b, nil
	case bytecode.Shl:
		return a << uint(b&63), nil
	case bytecode.Shr:
		return a >> uint(b&63), nil
	}
	return 0, fmt.Errorf("not an arithmetic op: %s", op)
}

func boolWord(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func valKind(isRef bool) string {
	if isRef {
		return "reference"
	}
	return "primitive"
}

// fieldRefness reports whether field slot i of obj holds a reference,
// validating the access.
func (vm *VM) fieldRefness(obj heap.Addr, i int) (bool, error) {
	if vm.h.KindOf(obj) != heap.KindObject {
		return false, fmt.Errorf("field access on non-object")
	}
	if i < 0 || i >= vm.h.Len(obj) {
		return false, fmt.Errorf("field slot %d out of range", i)
	}
	refMap := vm.h.Types().RefMaps[vm.h.TypeID(obj)]
	return i < len(refMap) && refMap[i], nil
}

// writeOutput forwards one output line to the sink and observer. Both
// copy the bytes before returning, so callers may pass reused buffers.
func (vm *VM) writeOutput(b []byte) {
	vm.out.write(b)
	if vm.cfg.Observer != nil {
		vm.cfg.Observer.OnOutput(b)
	}
}

// printInt writes "%d\n" through the VM's scratch buffer — the record
// hot path must not allocate per event.
func (vm *VM) printInt(v int64) {
	vm.printBuf = strconv.AppendInt(vm.printBuf[:0], v, 10)
	vm.printBuf = append(vm.printBuf, '\n')
	vm.writeOutput(vm.printBuf)
}
