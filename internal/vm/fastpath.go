package vm

import (
	"errors"
	"fmt"

	"dejavu/internal/bytecode"
	"dejavu/internal/core"
	"dejavu/internal/heap"
	"dejavu/internal/threads"
)

// The interpreter. Every opcode, and every fused superinstruction, has
// exactly one handler in fastTab; there is no second implementation.
// Both drivers dispatch through it:
//
//   - Run (and runSlice) executes whole scheduling slices over a
//     per-VM copy of the image's decoded stream — operands
//     pre-resolved, common pairs fused into superinstructions — with
//     the current method, code and pc
//     cached in Go locals instead of re-read from the heap frame every
//     instruction.
//   - RunUntil is Run with a resumable stop at the first outer
//     instruction boundary where Events() >= event, the boundary a Step
//     loop stops at. The stop shares the budget compare (checkAt), and
//     one event before it the slice drops to the unfused stream, so it
//     never falls between a fused pair's components.
//   - Step (execOne) executes exactly one instruction of the unfused
//     stream, re-reading the frame and flushing the resume pc and thread
//     mirrors after it, and polls journal rotation at every boundary.
//     Native callbacks (callNested) run the same way.
//
// Everything replay-observable is identical between the two drivers:
//
//   - Event accounting: every component of a fused pair counts its own
//     event in note, which also folds its own original (pc, opcode)
//     into the replay digest when the VM carries one in place (vm.dig:
//     a *Digest observer with KeepEvents == 0, decided by Load). Every
//     other Observer gets OnStep at the two dispatch sites, right
//     before the handler runs: execOne and runSlice's boundary
//     block, which budgetAt sends every
//     instruction through while such an observer is set, on the
//     unfused stream, so each component still reports itself, in
//     order. The MaxEvents budget runs at every component boundary,
//     exactly like Step's per-instruction check. Neither driver checks
//     stack depth or headroom: every program that loads is verified,
//     and pushFrame reserves its frame's verified footprint at entry,
//     the only place a stack grows. Yield points (method
//     prologues, taken backward branches) fire from the same helpers
//     (doCall, branch), so the logical clock, trace bytes and switch
//     schedule cannot shift.
//   - Control checks: the engine error, the halt and the thread state
//     are looked at only after a handler returns ctrlCall or
//     ctrlSwitch. A handler returns ctrlNext or ctrlJump only while its
//     thread still runs, the program has not halted and the engine has
//     not failed; one that can block, sleep, wait, halt or see the
//     engine fail returns ctrlSwitch with its resume pc instead, which
//     execOne treats exactly like ctrlNext.
//   - Deferred state: Run defers the frame's resume pc and the
//     per-thread heap mirrors, and flushes them whenever they can be
//     observed — at calls (the call site pc must sit in the caller
//     header before pushFrame), at Native instructions (nested callback
//     interpretation re-enters execOne through the heap-resident pc,
//     and remote tool VMs read the mirrors), before every stack growth
//     (an abandoned segment keeps its header; a taken backedge flushes
//     before its yield point, whose switch effects can grow the stack),
//     before a journal checkpoint snapshot, when the slice exits or
//     stops at a RunUntil target, and after dispatch picks a thread, so
//     a snapshot at any stop is Step's byte for byte. A mirror flush
//     visits the running thread and the threads on the scheduler's
//     change list (TakeChanged), the only mirrors that can be stale; a
//     monitor grant, notify or interrupt only lists its thread, which
//     the next of those points flushes. In between, nothing
//     replay-visible reads them: FinalState renders statics-reachable
//     heap only, and the flush schedule is identical between record and
//     replay, so heap digests match bit-for-bit.
//   - Inline caches (CallV target, GetF/PutF field refness, SConst
//     intern index, native ids) key on program identity — class layout,
//     string pool and native registry are immutable per program — and
//     are never invalidated by replay state. The image resolves what
//     the program alone decides (Aux); the rest fill at run time, in
//     the VM's own copy of the stream, never in the shared image.
//   - Journal rotation: Step polls RotatePending at every instruction
//     boundary, but the answer can only turn true after the engine
//     writes to the trace. Within a slice the only such writes that do
//     not end the slice come from Native and timed-wait clock reads, and
//     those flag a poll (journalLogged) that the per-instruction budget
//     compare picks up through checkAt; the loop also polls at every
//     slice boundary, where Step polls before dispatching. A clock the
//     dispatch itself logs (timer check) is polled after the slice's
//     first instruction, run from the unfused stream so a fused head
//     cannot carry the boundary past the second component. Segment
//     boundaries and checkpoint bytes therefore match Step's exactly.

type fastFn func(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error)

var fastTab []fastFn

func init() {
	fastTab = make([]fastFn, bytecode.NumTokens())
	fastTab[bytecode.Nop] = fpNop
	fastTab[bytecode.IConst] = fpIConst
	fastTab[bytecode.LConst] = fpIConst // Imm pre-decoded for both
	fastTab[bytecode.SConst] = fpSConst
	fastTab[bytecode.Null] = fpNull
	fastTab[bytecode.Pop] = fpPop
	fastTab[bytecode.Dup] = fpDup
	fastTab[bytecode.Swap] = fpSwap
	fastTab[bytecode.Load] = fpLoad
	fastTab[bytecode.Store] = fpStore
	for _, op := range []bytecode.Opcode{
		bytecode.Add, bytecode.Sub, bytecode.Mul, bytecode.Div, bytecode.Mod,
		bytecode.And, bytecode.Or, bytecode.Xor, bytecode.Shl, bytecode.Shr,
	} {
		fastTab[op] = fpArith
	}
	fastTab[bytecode.Neg] = fpNeg
	fastTab[bytecode.Not] = fpNot
	fastTab[bytecode.CmpEq] = fpCmpRef
	fastTab[bytecode.CmpNe] = fpCmpRef
	for _, op := range []bytecode.Opcode{
		bytecode.CmpLt, bytecode.CmpLe, bytecode.CmpGt, bytecode.CmpGe,
	} {
		fastTab[op] = fpCmpOrd
	}
	fastTab[bytecode.Jmp] = fpJmp
	fastTab[bytecode.Jz] = fpJzJnz
	fastTab[bytecode.Jnz] = fpJzJnz
	fastTab[bytecode.Ret] = fpRet
	fastTab[bytecode.RetV] = fpRet
	fastTab[bytecode.Call] = fpCall
	fastTab[bytecode.CallV] = fpCallV
	fastTab[bytecode.Native] = fpNative
	fastTab[bytecode.New] = fpNew
	fastTab[bytecode.GetF] = fpGetF
	fastTab[bytecode.PutF] = fpPutF
	fastTab[bytecode.GetS] = fpGetS
	fastTab[bytecode.PutS] = fpPutS
	fastTab[bytecode.MonEnter] = fpMonEnter
	fastTab[bytecode.MonExit] = fpMonExit
	fastTab[bytecode.Wait] = fpWait
	fastTab[bytecode.TimedWait] = fpWait
	fastTab[bytecode.Notify] = fpNotify
	fastTab[bytecode.NotifyAll] = fpNotify
	fastTab[bytecode.NewArr] = fpNewArr
	fastTab[bytecode.ALoad] = fpALoad
	fastTab[bytecode.AStore] = fpAStore
	fastTab[bytecode.ArrLen] = fpArrLen
	fastTab[bytecode.InstOf] = fpInstOf
	fastTab[bytecode.Spawn] = fpSpawn
	fastTab[bytecode.ThreadID] = fpThreadID
	fastTab[bytecode.YieldOp] = fpYield
	fastTab[bytecode.Sleep] = fpSleep
	fastTab[bytecode.Interrupt] = fpInterrupt
	fastTab[bytecode.Print] = fpPrint
	fastTab[bytecode.PrintS] = fpPrintS
	fastTab[bytecode.Assert] = fpAssert
	fastTab[bytecode.Halt] = fpHalt

	fastTab[bytecode.TokLoadArith] = fpLoadArith
	fastTab[bytecode.TokIConstArith] = fpIConstArith
	fastTab[bytecode.TokLoadLoad] = fpLoadLoad
	fastTab[bytecode.TokLoadIConst] = fpLoadIConst
	fastTab[bytecode.TokLoadStore] = fpLoadStore
	fastTab[bytecode.TokCmpJz] = fpCmpJump
	fastTab[bytecode.TokCmpJnz] = fpCmpJump
	fastTab[bytecode.TokIConstCall] = fpIConstCall

	if missing := missingHandlers(fastTab); len(missing) > 0 {
		panic(fmt.Sprintf("vm: no interpreter handler for tokens %v", missing))
	}
}

// missingHandlers lists the tokens — valid opcodes and fused pairs — that
// have no handler in tab. NewImage validates every program, so a token
// outside this set never reaches the dispatch loops.
func missingHandlers(tab []fastFn) []int {
	var missing []int
	for tok := 0; tok < bytecode.NumTokens(); tok++ {
		if tok < bytecode.NumOpcodes() && !bytecode.Opcode(tok).Valid() {
			continue
		}
		if tab[tok] == nil {
			missing = append(missing, tok)
		}
	}
	return missing
}

// note performs the per-event accounting: the global and per-thread
// event counters, plus the in-place digest fold, always with the
// component's original pc and opcode. It must stay inlinable into every
// handler (CI checks it): a call left in here, even a cold one, costs
// more than the inliner's budget has left. Other observers see the
// event at dispatch instead (see execOne and runSlice).
func (vm *VM) note(t *threads.Thread, mid, pc int, op bytecode.Opcode) {
	vm.events++
	t.EventCount++
	if d := vm.dig; d != nil {
		d.fold(stepWord(t.ID, mid, pc, op))
	}
}

// --- the stack primitives ---
//
// fpush and fpop are the interpreter's only push and pop: handlers,
// natives and callNested all use them, and both inline. Neither checks
// depth. Every program that loads is verified, so the operand depth at
// each pc is exact and no pop can underflow; pushFrame reserves the
// frame's verified footprint at entry, so no push within the frame can
// overflow, and the stack grows nowhere else. The kind checks stay
// with the callers: the verifier admits VUnknown operands, so those
// traps are live.

var (
	errWantPrim = errors.New("type error: expected primitive, found reference")
	errWantRef  = errors.New("type error: expected reference, found primitive")
	errNullRef  = errors.New("null reference")
)

// fpush writes val at t.SP and bumps it.
func (vm *VM) fpush(t *threads.Thread, val uint64, isRef bool) {
	vm.h.StoreWord(t.StackSeg, t.SP, val)
	t.Tags[t.SP] = isRef
	t.SP++
}

// fpop pops the top slot and clears its tag.
func (vm *VM) fpop(t *threads.Thread) (val uint64, isRef bool) {
	t.SP--
	val = vm.h.LoadWord(t.StackSeg, t.SP)
	isRef = t.Tags[t.SP]
	t.Tags[t.SP] = false
	return val, isRef
}

// boundaryErr marks an error raised at the instruction boundary between
// the two components of a fused pair (the event budget). It must surface
// unwrapped — Step reports it outside any trap — with the resume pc
// pointing at the second component.
type boundaryErr struct{ err error }

func (e *boundaryErr) Error() string { return e.err.Error() }
func (e *boundaryErr) Unwrap() error { return e.err }

// pairBoundary runs the instruction-boundary check between the two
// components of a fused pair: the MaxEvents budget, exactly as the
// dispatch loop runs it before every instruction. Like the dispatch
// loops, it checks no stack headroom (see fpush).
func (vm *VM) pairBoundary() error {
	if vm.cfg.MaxEvents > 0 && vm.events >= vm.cfg.MaxEvents {
		return ErrEventBudget
	}
	return nil
}

// plainCode returns method mid's unfused decoded stream, the one
// execOne runs, copying the image's on first use. Its pcs index the
// same instructions as the fused stream's, so a slice can switch between
// the two at any instruction boundary.
func (vm *VM) plainCode(mid int) []bytecode.DInstr {
	if vm.plain == nil {
		vm.plain = vm.img.plainStream().copyOut()
	}
	return vm.plain[mid]
}

// Run executes until the program halts or errs: dispatch a thread, then
// execute its whole scheduling slice over the fused stream with
// method/code/pc in locals, with or without a journal attached. It polls
// journal rotation only at the boundaries where the answer can have
// changed, which are exactly the boundaries where Step would rotate, so
// a Run and a Step loop produce bit-identical traces, journals,
// checkpoints, digests and switch schedules.
func (vm *VM) Run() (err error) {
	if vm.restoredBytes {
		defer vm.containCorruption(new(bool), &err)
	}
	_, err = vm.run()
	return err
}

// RunUntil runs like Run but returns at the first outer instruction
// boundary where Events() >= event: exactly where a loop of Steps guarded
// by Events() < event stops, also when a native callback carries the
// count past event. done reports that the program has terminated (halted
// or failed, err says which). A stop is not an error: the VM stays
// resumable by Run, RunUntil or Step, and its state at the stop is
// bit-identical to the Step loop's.
func (vm *VM) RunUntil(event uint64) (done bool, err error) {
	if vm.events >= event {
		return vm.halted || vm.err != nil, vm.err
	}
	if vm.restoredBytes {
		defer vm.containCorruption(&done, &err)
	}
	vm.stopAt = event
	defer func() { vm.stopAt = 0 }()
	return vm.run()
}

// run is the dispatch-and-slice loop Run and RunUntil share.
func (vm *VM) run() (done bool, err error) {
	if vm.decoded == nil {
		vm.decoded = vm.img.fused.copyOut()
	}
	for {
		// A RunUntil target reached by a slice's last instruction: stop
		// before the poll and the dispatch, which the Step loop would only
		// perform in its next Step.
		if vm.stopAt > 0 && vm.events >= vm.stopAt {
			return false, nil
		}
		// The slice boundary: Step would poll here, before dispatching.
		// rotationDue also re-arms checkAt for the coming slice.
		if vm.rotationDue() {
			if err := vm.rotateJournal(); err != nil {
				return true, err
			}
		}
		done, err := vm.EnsureDispatched()
		if done || err != nil {
			return true, err
		}
		if err := vm.runSlice(vm.sched.Current()); err != nil {
			return true, err
		}
		if vm.halted {
			return true, nil
		}
	}
}

// runSlice executes t until it loses the CPU, the program halts, or an
// error stops the run. On every exit it flushes the deferred state (the
// frame's resume pc and all thread mirrors) so the heap looks exactly
// like Step's at the same boundary.
func (vm *VM) runSlice(t *threads.Thread) error {
	h := vm.h
	m := vm.frameMethod(t)
	code := vm.decoded[m.ID]
	pc := int(int64(h.LoadWord(t.StackSeg, t.FP+FramePC)))

	stop := func(next int) {
		if t.State != threads.Terminated {
			vm.h.StoreWord(t.StackSeg, t.FP+FramePC, uint64(int64(next)))
		}
		vm.flushAllMirrors()
	}

	// A clock the dispatch just logged can make a rotation due. Step
	// polled before dispatching, so its next poll comes after this
	// slice's first instruction: run that one unfused, so that the poll
	// lands between a fused pair's components, as Step's does.
	head := vm.pollDue
	if head {
		code = vm.plainCode(m.ID)
	}

	for {
		// One compare covers the event budget and a pending journal poll
		// (checkAt is 0 while pollDue is set); journal-less runs without
		// a per-event observer only ever see the budget here.
		if vm.events >= vm.checkAt {
			if vm.stopAt > 0 && vm.events >= vm.stopAt {
				stop(pc) // RunUntil's target: resumable, so no vm.err
				return nil
			}
			if head {
				head = false // the slice's entry boundary: Step polled before dispatch
			} else if vm.pollDue {
				code = vm.decoded[m.ID] // back to the fused stream
				if vm.rotationDue() {
					stop(pc) // the checkpoint must see the flushed frame pc and mirrors
					if err := vm.rotateJournal(); err != nil {
						return err
					}
				}
			}
			if vm.cfg.MaxEvents > 0 && vm.events >= vm.cfg.MaxEvents {
				stop(pc)
				vm.err = ErrEventBudget
				return vm.err
			}
			if vm.stopAt > 0 && vm.events >= vm.stopAt-1 {
				// One event before a RunUntil stop: run the next
				// instruction unfused, so the stop lands on a boundary the
				// Step loop has too, never between a fused pair's
				// components.
				code = vm.plainCode(m.ID)
			}
			if vm.stepObs != nil {
				// A per-event observer (budgetAt pins checkAt to 0 here too)
				// sees each instruction of the unfused stream.
				code = vm.plainCode(m.ID)
				vm.stepObs.OnStep(t.ID, m.ID, pc, code[pc].Op)
			}
		}
		d := &code[pc]
		ctrl, next, err := fastTab[d.Tok](vm, t, m, d)
		if err != nil {
			var be *boundaryErr
			if errors.As(err, &be) {
				stop(next) // resume pc is the second component of the pair
				vm.err = be.err
				return vm.err
			}
			// Leave every frame pc where a Step loop leaves it. A trap
			// that arrives already wrapped was raised where the frames
			// are flushed: in a native callback (fpNative stored this
			// frame's pc, execOne the callback frames') or in a fused
			// pair's second component (pairErr stored its pc). Any other
			// trap is this instruction's own, at pc.
			var ve *VMError
			if errors.As(err, &ve) {
				vm.flushAllMirrors()
			} else {
				err = vm.trap(t, m, int(d.PC), err)
				stop(pc)
			}
			vm.err = err
			return vm.err
		}
		switch ctrl {
		case ctrlNext:
			pc = int(d.Next)
			continue
		case ctrlJump:
			pc = next
			continue
		case ctrlCall:
			// Frame changed (call or return): re-cache the method.
			m = vm.frameMethod(t)
			code = vm.decoded[m.ID]
		}
		// A control change (ctrlCall, ctrlSwitch): the only outcomes after
		// which the engine can have failed, the program halted or the
		// thread left the CPU. Every handler that can cause one of those
		// returns ctrlSwitch instead of ctrlNext (DESIGN.md §14).
		pc = next
		if e := vm.eng.Err(); e != nil {
			stop(pc)
			if errors.Is(e, core.ErrStalled) {
				vm.err = fmt.Errorf("vm: %w", e)
			} else {
				vm.err = fmt.Errorf("vm: replay diverged after %d events: %w", vm.events, e)
			}
			return vm.err
		}
		if vm.halted {
			stop(pc)
			return nil
		}
		if t.State != threads.Running {
			// Preempted, blocked, waiting, sleeping or terminated: the
			// slice is over. stop stores the resume pc (skipped for a
			// terminated thread, which has no frame left).
			stop(pc)
			return nil
		}
	}
}

// --- plain handlers ---

func fpNop(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	return ctrlNext, 0, nil
}

func fpIConst(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	vm.fpush(t, uint64(d.Imm), false)
	return ctrlNext, 0, nil
}

func fpSConst(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	if d.Aux >= 0 {
		// Pre-resolved intern index; the address is re-read because the
		// collector may move the interned array.
		vm.fpush(t, uint64(vm.interned[d.Aux].addr), true)
		return ctrlNext, 0, nil
	}
	a, err := vm.intern(vm.prog.Strings[d.A])
	if err != nil {
		return 0, 0, err
	}
	vm.fpush(t, uint64(a), true)
	return ctrlNext, 0, nil
}

func fpNull(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	vm.fpush(t, 0, true)
	return ctrlNext, 0, nil
}

func fpPop(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	vm.fpop(t)
	return ctrlNext, 0, nil
}

func fpDup(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	v, tag := vm.slot(t, t.SP-1)
	vm.fpush(t, v, tag)
	return ctrlNext, 0, nil
}

func fpSwap(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	b, tb := vm.fpop(t)
	a, ta := vm.fpop(t)
	vm.fpush(t, b, tb)
	vm.fpush(t, a, ta)
	return ctrlNext, 0, nil
}

func fpLoad(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	v, tag := vm.slot(t, t.FP+FrameHeader+int(d.A))
	vm.fpush(t, v, tag)
	return ctrlNext, 0, nil
}

func fpStore(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	v, tag := vm.fpop(t)
	vm.setSlot(t, t.FP+FrameHeader+int(d.A), v, tag)
	return ctrlNext, 0, nil
}

func fpArith(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	// Tag checks interleave with the pops exactly as two popPrim calls
	// would: a malformed program must surface the same error.
	b, tb := vm.fpop(t)
	if tb {
		return 0, 0, errWantPrim
	}
	a, ta := vm.fpop(t)
	if ta {
		return 0, 0, errWantPrim
	}
	r, err := arith(d.Op, int64(a), int64(b))
	if err != nil {
		return 0, 0, err
	}
	vm.fpush(t, uint64(r), false)
	return ctrlNext, 0, nil
}

func fpNeg(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	a, ta := vm.fpop(t)
	if ta {
		return 0, 0, errWantPrim
	}
	vm.fpush(t, uint64(-int64(a)), false)
	return ctrlNext, 0, nil
}

func fpNot(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	a, ta := vm.fpop(t)
	if ta {
		return 0, 0, errWantPrim
	}
	vm.fpush(t, uint64(^int64(a)), false)
	return ctrlNext, 0, nil
}

func fpCmpRef(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	b, tb := vm.fpop(t)
	a, ta := vm.fpop(t)
	if ta != tb {
		return 0, 0, fmt.Errorf("type error: comparing reference with primitive")
	}
	r := boolWord(a == b)
	if d.Op == bytecode.CmpNe {
		r = boolWord(a != b)
	}
	vm.fpush(t, r, false)
	return ctrlNext, 0, nil
}

func cmpOrd(op bytecode.Opcode, a, b int64) bool {
	switch op {
	case bytecode.CmpLt:
		return a < b
	case bytecode.CmpLe:
		return a <= b
	case bytecode.CmpGt:
		return a > b
	default: // CmpGe
		return a >= b
	}
}

func fpCmpOrd(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	b, tb := vm.fpop(t)
	if tb {
		return 0, 0, errWantPrim
	}
	a, ta := vm.fpop(t)
	if ta {
		return 0, 0, errWantPrim
	}
	vm.fpush(t, boolWord(cmpOrd(d.Op, int64(a), int64(b))), false)
	return ctrlNext, 0, nil
}

func fpJmp(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	return vm.branch(t, int(d.PC), int(d.A), true)
}

func fpJzJnz(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	w, tag := vm.fpop(t)
	if tag {
		return 0, 0, errWantPrim
	}
	v := int64(w)
	taken := (v == 0) == (d.Op == bytecode.Jz)
	if !taken {
		return ctrlNext, 0, nil
	}
	return vm.branch(t, int(d.PC), int(d.A), true)
}

func fpRet(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	// Under Step the dying frame's header already holds the Ret's own pc
	// (written by the previous instruction's epilogue); those bytes
	// persist as garbage above SP after the pop and are part of the
	// perturbation-free heap image, so Run writes them too.
	vm.flushFramePC(t, int(d.PC))
	var rv uint64
	var rtag bool
	if d.Op == bytecode.RetV {
		rv, rtag = vm.fpop(t)
	}
	done, resume := vm.popFrame(t)
	if done {
		vm.sched.Terminate(t)
		return ctrlSwitch, 0, nil
	}
	if d.Op == bytecode.RetV {
		vm.fpush(t, rv, rtag)
	}
	// ctrlCall: the frame changed, the loop re-caches the caller method.
	return ctrlCall, resume, nil
}

// flushFramePC writes the frame's resume pc to the heap header. Run
// defers it, so call sites and native boundaries restore it before
// anything (pushFrame, nested interpretation, remote mirrors) can look.
func (vm *VM) flushFramePC(t *threads.Thread, pc int) {
	vm.h.StoreWord(t.StackSeg, t.FP+FramePC, uint64(int64(pc)))
}

func fpCall(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	vm.flushFramePC(t, int(d.PC)) // the call site: returns resume at +1
	return vm.doCall(t, int(d.PC), vm.prog.Methods[d.A], int(d.B))
}

func fpCallV(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	h := vm.h
	name := vm.prog.Strings[d.A]
	nargs := int(d.B)
	if nargs < 1 {
		return 0, 0, fmt.Errorf("callv needs a receiver")
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
		vm.flushFramePC(t, int(d.PC))
		return vm.doCall(t, int(d.PC), vm.prog.Methods[mid], nargs)
	}
	typeID := h.TypeID(heap.Addr(rv))
	var target *bytecode.Method
	if int32(typeID) == d.ICKey && h.KindOf(heap.Addr(rv)) == heap.KindObject {
		// Monomorphic hit: the receiver class resolved here before. The
		// arity was checked when the cache was filled and class layout
		// is immutable, so only the kind guard remains.
		target = d.ICMeth
	} else {
		if h.KindOf(heap.Addr(rv)) != heap.KindObject || typeID >= vm.numClasses {
			return 0, 0, fmt.Errorf("callv %s receiver is not a program object", name)
		}
		tgt, ok := vm.prog.Classes[typeID].Method(name)
		if !ok {
			return 0, 0, fmt.Errorf("class %s has no method %s", vm.prog.Classes[typeID].Name, name)
		}
		if tgt.NArgs != nargs {
			return 0, 0, fmt.Errorf("callv %s: %d args passed, %d expected", name, nargs, tgt.NArgs)
		}
		d.ICKey, d.ICMeth = int32(typeID), tgt
		target = tgt
	}
	vm.flushFramePC(t, int(d.PC))
	return vm.doCall(t, int(d.PC), target, nargs)
}

func fpNative(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	// Natives can re-enter the interpreter (callbacks pop frames through
	// the heap-resident resume pc) and remote tool VMs read the thread
	// mirrors, so the deferred state is flushed first — the heap looks
	// exactly like Step's at this boundary.
	vm.flushFramePC(t, int(d.PC))
	vm.flushAllMirrors()
	id := int(d.Aux)
	if id < 0 {
		return 0, 0, fmt.Errorf("unknown native %q", vm.prog.Strings[d.A])
	}
	// Clock, native, input and callback events all go through here (and
	// nested callbacks may log switches), so a journal poll follows.
	vm.journalLogged()
	v, isRef, err := vm.doNativeID(t, id)
	if err != nil {
		return 0, 0, err
	}
	vm.fpush(t, v, isRef)
	if vm.eng.Err() != nil {
		// A failed engine call (a diverged or stalled replay) leaves the
		// native's result in place; the dispatch loop reports the failure.
		return ctrlSwitch, int(d.PC) + 1, nil
	}
	return ctrlNext, 0, nil
}

func fpNew(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	a, err := vm.allocObject(int(d.A), len(vm.prog.Classes[d.A].Fields))
	if err != nil {
		return 0, 0, err
	}
	vm.fpush(t, uint64(a), true)
	return ctrlNext, 0, nil
}

// fieldRefnessCached resolves field refness through the DInstr's
// monomorphic cache. Object length is a pure function of the type id
// (allocObject always sizes by the class field count), so a type-id hit
// proves the range check too.
func (vm *VM) fieldRefnessCached(obj heap.Addr, d *bytecode.DInstr) (bool, error) {
	tid := vm.h.TypeID(obj)
	if int32(tid) == d.ICKey && vm.h.KindOf(obj) == heap.KindObject {
		return d.ICRef, nil
	}
	isRef, err := vm.fieldRefness(obj, int(d.A))
	if err != nil {
		return false, err
	}
	d.ICKey, d.ICRef = int32(tid), isRef
	return isRef, nil
}

func fpGetF(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	w, otag := vm.fpop(t)
	if !otag {
		return 0, 0, errWantRef
	}
	if w == 0 {
		return 0, 0, errNullRef
	}
	obj := heap.Addr(w)
	slotIdx := int(d.A)
	if vm.isStub(obj) { // §3.4: getf extended to remote objects
		v, tag, err := vm.remoteGetF(obj, slotIdx)
		if err != nil {
			return 0, 0, err
		}
		vm.fpush(t, v, tag)
		return ctrlNext, 0, nil
	}
	isRef, err := vm.fieldRefnessCached(obj, d)
	if err != nil {
		return 0, 0, err
	}
	v := vm.h.LoadWord(obj, slotIdx)
	if vm.cfg.MemHook != nil {
		vm.cfg.MemHook.OnHeapAccess(t.ID, obj, slotIdx, false, v)
	}
	vm.fpush(t, v, isRef)
	return ctrlNext, 0, nil
}

func fpPutF(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	v, tag := vm.fpop(t)
	ow, otag := vm.fpop(t)
	if !otag {
		return 0, 0, errWantRef
	}
	if ow == 0 {
		return 0, 0, errNullRef
	}
	obj := heap.Addr(ow)
	slotIdx := int(d.A)
	if vm.isStub(obj) {
		return 0, 0, fmt.Errorf("remote objects are read-only (putf on stub)")
	}
	isRef, err := vm.fieldRefnessCached(obj, d)
	if err != nil {
		return 0, 0, err
	}
	if isRef != tag {
		return 0, 0, fmt.Errorf("type error: storing %s into %s field", valKind(tag), valKind(isRef))
	}
	if vm.cfg.MemHook != nil {
		vm.cfg.MemHook.OnHeapAccess(t.ID, obj, slotIdx, true, v)
	}
	vm.h.StoreWord(obj, slotIdx, v)
	return ctrlNext, 0, nil
}

func fpGetS(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	obj := vm.staticsObj[d.A]
	isRef := d.Aux != 0 // refness pre-resolved at decode time
	v := vm.h.LoadWord(obj, int(d.B))
	if vm.cfg.MemHook != nil {
		vm.cfg.MemHook.OnHeapAccess(t.ID, obj, int(d.B), false, v)
	}
	vm.fpush(t, v, isRef)
	return ctrlNext, 0, nil
}

func fpPutS(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	v, tag := vm.fpop(t)
	isRef := d.Aux != 0 // refness pre-resolved at decode time
	if isRef != tag {
		return 0, 0, fmt.Errorf("type error: storing %s into %s static", valKind(tag), valKind(isRef))
	}
	obj := vm.staticsObj[d.A]
	if vm.cfg.MemHook != nil {
		vm.cfg.MemHook.OnHeapAccess(t.ID, obj, int(d.B), true, v)
	}
	vm.h.StoreWord(obj, int(d.B), v)
	return ctrlNext, 0, nil
}

// fpWait also covers TimedWait, fpNotify also covers NotifyAll, keyed
// off d.Op.
func fpWait(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	if vm.nestedDepth > 0 {
		return 0, 0, fmt.Errorf("blocking wait inside a native callback")
	}
	wakeAt := int64(-1)
	if d.Op == bytecode.TimedWait {
		mw, mtag := vm.fpop(t)
		if mtag {
			return 0, 0, errWantPrim
		}
		millis := int64(mw)
		if millis < 0 {
			millis = 0
		}
		wakeAt = vm.readClock() + millis
	}
	w, otag := vm.fpop(t)
	if !otag {
		return 0, 0, errWantRef
	}
	if w == 0 {
		return 0, 0, errNullRef
	}
	if err := vm.sched.Wait(t, heap.Addr(w), wakeAt); err != nil {
		return 0, 0, err
	}
	return ctrlSwitch, int(d.PC) + 1, nil // waiting: the slice is over
}

func fpNotify(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	w, otag := vm.fpop(t)
	if !otag {
		return 0, 0, errWantRef
	}
	if w == 0 {
		return 0, 0, errNullRef
	}
	var err error
	if d.Op == bytecode.Notify {
		_, err = vm.sched.Notify(t, heap.Addr(w))
	} else {
		_, err = vm.sched.NotifyAll(t, heap.Addr(w))
	}
	if err != nil {
		return 0, 0, err
	}
	return ctrlNext, 0, nil
}

func fpMonEnter(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	w, otag := vm.fpop(t)
	if !otag {
		return 0, 0, errWantRef
	}
	if w == 0 {
		return 0, 0, errNullRef
	}
	obj := heap.Addr(w)
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
		return ctrlSwitch, int(d.PC) + 1, nil // blocked; resumes at pc+1
	}
	return ctrlNext, 0, nil
}

func fpMonExit(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	w, otag := vm.fpop(t)
	if !otag {
		return 0, 0, errWantRef
	}
	if w == 0 {
		return 0, 0, errNullRef
	}
	obj := heap.Addr(w)
	if err := vm.sched.MonExit(t, obj); err != nil {
		return 0, 0, err
	}
	if vm.cfg.SyncHook != nil {
		vm.cfg.SyncHook.OnMonitor(t.ID, obj, false)
	}
	return ctrlNext, 0, nil
}

func fpALoad(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	h := vm.h
	iw, itag := vm.fpop(t)
	if itag {
		return 0, 0, errWantPrim
	}
	idx := int64(iw)
	aw, atag := vm.fpop(t)
	if !atag {
		return 0, 0, errWantRef
	}
	if aw == 0 {
		return 0, 0, errNullRef
	}
	arr := heap.Addr(aw)
	if vm.isStub(arr) { // §3.4: aload extended to remote arrays
		v, tag, err := vm.remoteALoad(arr, int(idx))
		if err != nil {
			return 0, 0, err
		}
		vm.fpush(t, v, tag)
		return ctrlNext, 0, nil
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
	vm.fpush(t, v, tag)
	return ctrlNext, 0, nil
}

func fpArrLen(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	aw, atag := vm.fpop(t)
	if !atag {
		return 0, 0, errWantRef
	}
	if aw == 0 {
		return 0, 0, errNullRef
	}
	arr := heap.Addr(aw)
	if vm.isStub(arr) { // §3.4: arrlen extended to remote arrays
		_, _, length, kind := vm.stubMeta(arr)
		if kind == heap.KindObject {
			return 0, 0, fmt.Errorf("remote arrlen on non-array")
		}
		vm.fpush(t, uint64(length), false)
		return ctrlNext, 0, nil
	}
	if vm.h.KindOf(arr) == heap.KindObject {
		return 0, 0, fmt.Errorf("arrlen on non-array")
	}
	vm.fpush(t, uint64(vm.h.Len(arr)), false)
	return ctrlNext, 0, nil
}

func fpNewArr(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	w, tag := vm.fpop(t)
	if tag {
		return 0, 0, errWantPrim
	}
	n := int64(w)
	if n < 0 || n > 1<<28 {
		return 0, 0, fmt.Errorf("bad array length %d", n)
	}
	var kind heap.Kind
	switch d.A {
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
	vm.fpush(t, uint64(a), true)
	return ctrlNext, 0, nil
}

func fpAStore(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	h := vm.h
	v, tag := vm.fpop(t)
	iw, itag := vm.fpop(t)
	if itag {
		return 0, 0, errWantPrim
	}
	idx := int(int64(iw))
	aw, atag := vm.fpop(t)
	if !atag {
		return 0, 0, errWantRef
	}
	if aw == 0 {
		return 0, 0, errNullRef
	}
	arr := heap.Addr(aw)
	if vm.isStub(arr) {
		return 0, 0, fmt.Errorf("remote objects are read-only (astore on stub)")
	}
	if err := h.CheckBounds(arr, idx); err != nil {
		return 0, 0, err
	}
	switch h.KindOf(arr) {
	case heap.KindInt64Arr:
		if tag {
			return 0, 0, fmt.Errorf("type error: reference into int array")
		}
		h.StoreWord(arr, idx, v)
	case heap.KindRefArr:
		if !tag {
			return 0, 0, fmt.Errorf("type error: primitive into ref array")
		}
		h.StoreWord(arr, idx, v)
	case heap.KindByteArr:
		if tag {
			return 0, 0, fmt.Errorf("type error: reference into byte array")
		}
		h.StoreByte(arr, idx, byte(v))
	default:
		return 0, 0, fmt.Errorf("astore on non-array")
	}
	if vm.cfg.MemHook != nil {
		vm.cfg.MemHook.OnHeapAccess(t.ID, arr, idx, true, v)
	}
	return ctrlNext, 0, nil
}

func fpInstOf(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	w, tag := vm.fpop(t)
	if !tag {
		return 0, 0, errWantRef
	}
	a := heap.Addr(w)
	if vm.isStub(a) { // §3.4: instof consults the remote type
		_, typeID, _, kind := vm.stubMeta(a)
		vm.fpush(t, boolWord(kind == heap.KindObject && typeID == int(d.A)), false)
		return ctrlNext, 0, nil
	}
	r := a != 0 && vm.h.KindOf(a) == heap.KindObject && vm.h.TypeID(a) == int(d.A)
	vm.fpush(t, boolWord(r), false)
	return ctrlNext, 0, nil
}

func fpSpawn(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	nargs := int(d.B)
	nt, err := vm.spawnThread(vm.prog.Methods[d.A].ID, t, t.SP-nargs)
	if err != nil {
		return 0, 0, err
	}
	// Pop the arguments now that they are copied.
	for i := 0; i < nargs; i++ {
		vm.fpop(t)
	}
	vm.fpush(t, uint64(nt.ID), false)
	return ctrlNext, 0, nil
}

func fpYield(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	// A voluntary yield is a deterministic thread switch: both modes take
	// it identically, so nothing is recorded.
	if vm.nestedDepth > 0 {
		return ctrlNext, 0, nil
	}
	vm.sched.Preempt(t)
	return ctrlSwitch, int(d.PC) + 1, nil
}

func fpSleep(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	if vm.nestedDepth > 0 {
		return 0, 0, fmt.Errorf("blocking sleep inside a native callback")
	}
	w, tag := vm.fpop(t)
	if tag {
		return 0, 0, errWantPrim
	}
	millis := int64(w)
	if millis < 0 {
		millis = 0
	}
	vm.sched.Sleep(t, vm.readClock()+millis)
	return ctrlSwitch, int(d.PC) + 1, nil // sleeping: the slice is over
}

func fpInterrupt(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	w, tag := vm.fpop(t)
	if tag {
		return 0, 0, errWantPrim
	}
	tid := int64(w)
	target, ok := vm.sched.Thread(int(tid))
	if !ok {
		return 0, 0, fmt.Errorf("interrupt of unknown thread %d", tid)
	}
	vm.sched.Interrupt(target)
	return ctrlNext, 0, nil
}

func fpThreadID(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	vm.fpush(t, uint64(t.ID), false)
	return ctrlNext, 0, nil
}

func fpPrint(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	w, tag := vm.fpop(t)
	if tag {
		return 0, 0, errWantPrim
	}
	vm.printInt(int64(w))
	return ctrlNext, 0, nil
}

func fpPrintS(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	w, tag := vm.fpop(t)
	if !tag {
		return 0, 0, errWantRef
	}
	if w == 0 {
		return 0, 0, errNullRef
	}
	a := heap.Addr(w)
	if vm.isStub(a) { // §3.4: remote strings print transparently
		b, err := vm.remoteBytes(a)
		if err != nil {
			return 0, 0, err
		}
		vm.writeOutput(append(b, '\n'))
		return ctrlNext, 0, nil
	}
	if vm.h.KindOf(a) != heap.KindByteArr {
		return 0, 0, fmt.Errorf("prints on non-string")
	}
	vm.printBuf = append(vm.printBuf[:0], vm.h.Bytes(a)...)
	vm.printBuf = append(vm.printBuf, '\n')
	vm.writeOutput(vm.printBuf)
	return ctrlNext, 0, nil
}

func fpAssert(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	w, tag := vm.fpop(t)
	if tag {
		return 0, 0, errWantPrim
	}
	if w == 0 {
		return 0, 0, fmt.Errorf("assertion failed")
	}
	return ctrlNext, 0, nil
}

func fpHalt(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	vm.halted = true
	return ctrlSwitch, int(d.PC) + 1, nil // the dispatch loop sees the halt
}

// --- fused superinstruction handlers ---
//
// Each handler executes both components with per-component event
// accounting, runs the pairBoundary checks where the unfused stream has
// an instruction boundary, and attributes second-component traps to the
// second component's pc. Stack round-trips that the unfused pair would
// perform (push by component 1, immediate pop by component 2) are
// elided; the net stack effect, the tag array, and every trap condition
// are identical. (Slots above SP are garbage under both drivers and
// invisible to FinalState and to the record/replay digests, which see
// identical flush schedules between record and replay.)

// pairErr wraps a second-component error exactly as Step would: trapped
// at the component's own pc, which the frame holds, as the first
// component's epilogue left it under Step.
func (vm *VM) pairErr(t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr, err error) error {
	vm.flushFramePC(t, int(d.PC)+1)
	return vm.trap(t, m, int(d.PC)+1, err)
}

func fpLoadArith(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), bytecode.Load)
	b, tag := vm.slot(t, t.FP+FrameHeader+int(d.A))
	if err := vm.pairBoundary(); err != nil {
		return ctrlJump, int(d.PC) + 1, &boundaryErr{err}
	}
	// The unfused Load would have written the value at the stack top;
	// keep the bytes above SP identical (they survive GC segment
	// copies, and the debugger's perturbation-free claim compares whole
	// heap images between Step-driven and fast runs).
	vm.h.StoreWord(t.StackSeg, t.SP, b)
	vm.note(t, m.ID, int(d.PC)+1, d.Op2)
	if tag {
		// The loaded value is the arith's top operand; it is popped
		// first, so the kind trap fires on it first.
		return 0, 0, vm.pairErr(t, m, d, errWantPrim)
	}
	a, ta := vm.fpop(t)
	if ta {
		return 0, 0, vm.pairErr(t, m, d, errWantPrim)
	}
	r, err := arith(d.Op2, int64(a), int64(b))
	if err != nil {
		return 0, 0, vm.pairErr(t, m, d, err)
	}
	vm.fpush(t, uint64(r), false)
	return ctrlNext, 0, nil
}

func fpIConstArith(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), bytecode.IConst)
	if err := vm.pairBoundary(); err != nil {
		return ctrlJump, int(d.PC) + 1, &boundaryErr{err}
	}
	vm.h.StoreWord(t.StackSeg, t.SP, uint64(d.Imm)) // elided push: keep bytes identical
	vm.note(t, m.ID, int(d.PC)+1, d.Op2)
	a, ta := vm.fpop(t)
	if ta {
		return 0, 0, vm.pairErr(t, m, d, errWantPrim)
	}
	r, err := arith(d.Op2, int64(a), d.Imm)
	if err != nil {
		return 0, 0, vm.pairErr(t, m, d, err)
	}
	vm.fpush(t, uint64(r), false)
	return ctrlNext, 0, nil
}

func fpLoadLoad(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), bytecode.Load)
	v, tag := vm.slot(t, t.FP+FrameHeader+int(d.A))
	vm.fpush(t, v, tag)
	if err := vm.pairBoundary(); err != nil {
		return ctrlJump, int(d.PC) + 1, &boundaryErr{err}
	}
	vm.note(t, m.ID, int(d.PC)+1, bytecode.Load)
	v, tag = vm.slot(t, t.FP+FrameHeader+int(d.A2))
	vm.fpush(t, v, tag)
	return ctrlNext, 0, nil
}

func fpLoadIConst(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), bytecode.Load)
	v, tag := vm.slot(t, t.FP+FrameHeader+int(d.A))
	vm.fpush(t, v, tag)
	if err := vm.pairBoundary(); err != nil {
		return ctrlJump, int(d.PC) + 1, &boundaryErr{err}
	}
	vm.note(t, m.ID, int(d.PC)+1, bytecode.IConst)
	vm.fpush(t, uint64(d.Imm2), false)
	return ctrlNext, 0, nil
}

func fpLoadStore(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), bytecode.Load)
	v, tag := vm.slot(t, t.FP+FrameHeader+int(d.A))
	if err := vm.pairBoundary(); err != nil {
		return ctrlJump, int(d.PC) + 1, &boundaryErr{err}
	}
	vm.h.StoreWord(t.StackSeg, t.SP, v) // elided push: keep bytes identical
	vm.note(t, m.ID, int(d.PC)+1, bytecode.Store)
	vm.setSlot(t, t.FP+FrameHeader+int(d.A2), v, tag)
	return ctrlNext, 0, nil
}

func fpCmpJump(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), d.Op)
	var r uint64
	switch d.Op {
	case bytecode.CmpEq, bytecode.CmpNe:
		b, tb := vm.fpop(t)
		a, ta := vm.fpop(t)
		if ta != tb {
			return 0, 0, fmt.Errorf("type error: comparing reference with primitive")
		}
		r = boolWord(a == b)
		if d.Op == bytecode.CmpNe {
			r = boolWord(a != b)
		}
	default:
		b, tb := vm.fpop(t)
		if tb {
			return 0, 0, errWantPrim
		}
		a, ta := vm.fpop(t)
		if ta {
			return 0, 0, errWantPrim
		}
		r = boolWord(cmpOrd(d.Op, int64(a), int64(b)))
	}
	if err := vm.pairBoundary(); err != nil {
		return ctrlJump, int(d.PC) + 1, &boundaryErr{err}
	}
	vm.h.StoreWord(t.StackSeg, t.SP, r) // elided push: keep bytes identical
	vm.note(t, m.ID, int(d.PC)+1, d.Op2)
	taken := (r == 0) == (d.Op2 == bytecode.Jz)
	if !taken {
		return ctrlNext, 0, nil
	}
	// The branch's own pc is the second component.
	return vm.branch(t, int(d.PC)+1, int(d.A2), true)
}

func fpIConstCall(vm *VM, t *threads.Thread, m *bytecode.Method, d *bytecode.DInstr) (control, int, error) {
	vm.note(t, m.ID, int(d.PC), bytecode.IConst)
	vm.fpush(t, uint64(d.Imm), false)
	if err := vm.pairBoundary(); err != nil {
		return ctrlJump, int(d.PC) + 1, &boundaryErr{err}
	}
	vm.note(t, m.ID, int(d.PC)+1, bytecode.Call)
	// The call site is the second component: returns resume at PC+2,
	// the slot after the pair.
	vm.flushFramePC(t, int(d.PC)+1)
	ctrl, next, err := vm.doCall(t, int(d.PC)+1, vm.prog.Methods[d.A2], int(d.B2))
	if err != nil {
		return 0, 0, vm.pairErr(t, m, d, err)
	}
	return ctrl, next, nil
}
