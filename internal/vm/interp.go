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

// Step executes exactly one instruction (dispatching threads and expiring
// timers as needed first) and returns done=true when the program has
// terminated. Debugger single-stepping and breakpoint checks drive the VM
// through Step; travel stops on the same boundaries through RunUntil.
// The instruction runs through the same handler Run would use (see
// execOne).
func (vm *VM) Step() (done bool, err error) {
	if vm.restoredBytes {
		defer vm.containCorruption(&done, &err)
	}
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

// budgetAt is the event count at which runSlice's boundary compare must
// leave the hot path: where the MaxEvents budget runs out, or one event
// before a RunUntil stop, whichever comes first. A per-event observer
// pins it at 0, so every boundary takes the slow block, which reports the
// step to the observer.
func (vm *VM) budgetAt() uint64 {
	if vm.stepObs != nil {
		return 0
	}
	at := uint64(math.MaxUint64)
	if vm.cfg.MaxEvents > 0 {
		at = vm.cfg.MaxEvents
	}
	if vm.stopAt > 0 && vm.stopAt-1 < at {
		at = vm.stopAt - 1
	}
	return at
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
// VM as it stands at this instruction boundary, encoded from live state
// into the buffer the previous rotation used. Only meaningful while
// recording — a replaying VM never rotates (its journal is read-only).
// A failure is sticky: it becomes the run's error.
func (vm *VM) rotateJournal() error {
	nyp, ok := vm.eng.RecordPos()
	if !ok {
		return nil
	}
	// A checkpoint is the heap image plus a few KB. When that outgrows the
	// buffer, reserve twice the room: a heap that grows between rotations
	// then reallocates the buffer a logarithmic number of times.
	if need := vm.h.Used() + 4096; cap(vm.ckptBuf) < need {
		vm.ckptBuf = make([]byte, 0, 2*need)
	}
	var err error
	vm.ckptBuf, err = vm.AppendCheckpoint(vm.ckptBuf[:0])
	if err == nil {
		err = vm.cfg.Journal.Rotate(vm.ckptBuf, vm.events, nyp)
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
	ctrlNext   control = iota // fall through to the next instruction
	ctrlJump                  // pc set explicitly
	ctrlCall                  // frame changed (call or return); pc set explicitly
	ctrlSwitch                // current thread gave up the CPU; pc set explicitly
)

// execOne runs a single instruction of t — one "event" in the paper's
// model — for Step and for native callbacks (callNested). It takes the
// instruction from the unfused decoded stream, runs it through the same
// fastTab handler Run uses, and then writes back what Run defers: the
// frame's resume pc and the thread mirrors.
func (vm *VM) execOne(t *threads.Thread) error {
	m := vm.frameMethod(t)
	pc := int(int64(vm.h.LoadWord(t.StackSeg, t.FP+FramePC)))
	d := &vm.plainCode(m.ID)[pc]
	if vm.stepObs != nil {
		vm.stepObs.OnStep(t.ID, m.ID, pc, d.Op)
	}
	ctrl, next, err := fastTab[d.Tok](vm, t, m, d)
	if err != nil {
		// A trap raised inside a native callback already carries its own
		// context; everything else is trapped here, as runSlice does.
		var ve *VMError
		if !errors.As(err, &ve) {
			err = vm.trap(t, m, pc, err)
		}
		// The handler may have popped operands or changed threads before
		// it failed; runSlice flushes the mirrors at a trap too.
		vm.flushAllMirrors()
		return err
	}
	if ctrl == ctrlNext {
		next = pc + 1
	}
	// Save the resume pc in whichever frame is now on top: the running
	// thread's, a blocked thread's (it resumes after this instruction), a
	// preempted one's, the callee's after a call (pc 0, already set by
	// pushFrame), or the caller's after a return. A terminated thread has
	// no frame left to update.
	if t.State != threads.Terminated {
		vm.flushFramePC(t, next)
	}
	vm.flushAllMirrors()
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

// branch handles a taken jump. A backward jump is a loop backedge and
// therefore a yield point (Jalapeño's placement).
func (vm *VM) branch(t *threads.Thread, pc, target int, taken bool) (control, int, error) {
	if !taken {
		return ctrlNext, 0, nil
	}
	if target <= pc { // loop backedge: yield point
		// The engine's switch effects can grow the stack and abandon this
		// segment; its header must hold the pc Step would have flushed.
		vm.flushFramePC(t, pc)
		if vm.yieldHere(t) || vm.eng.Err() != nil {
			// Switched, or the engine failed at the yield point (a stalled
			// or diverged replay): either way the dispatch loop must look.
			return ctrlSwitch, target, nil
		}
	}
	return ctrlJump, target, nil
}

// doCall pushes the callee frame; method entry is a yield point (method
// prologue placement).
func (vm *VM) doCall(t *threads.Thread, pc int, target *bytecode.Method, nargs int) (control, int, error) {
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
