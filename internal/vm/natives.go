package vm

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"dejavu/internal/bytecode"
	"dejavu/internal/heap"
	"dejavu/internal/threads"
)

// The native interface ("JNI", §2.5). Natives are either deterministic —
// pure functions of replayed VM state, executed identically in both modes
// and never logged (like Jalapeño's address-based identity hash) — or
// non-deterministic, in which case the DejaVu engine records their results
// (and any callback parameters) and regenerates them during replay without
// running the native at all.

// nativeNames lists every native, sorted, so each gets a stable trace ID
// (its rank) shared by record and replay.
var nativeNames = []string{
	"clock",         // () -> millis       non-det: wall clock (the paper's Date())
	"gc",            // () -> 0            det: force a collection
	"heapused",      // () -> bytes        det under symmetric execution
	"idhash",        // (ref) -> addr      det: address-based identity hash
	"interrupted",   // () -> 0/1          det: reads+clears the replayed flag
	"isremote",      // (ref) -> 0/1       det: is the reference a remote stub
	"nanotime",      // () -> nanos        non-det
	"parseint",      // (str) -> value     det
	"pollevents",    // (handler,max)->n   non-det with callbacks
	"random",        // () -> value        non-det: host entropy
	"randrange",     // (n) -> [0,n)       non-det
	"readline",      // () -> str          non-det: environment input
	"remotedict",    // () -> stub         mapped method: remote VM_Dictionary (§3.1)
	"remotethreads", // () -> stub       mapped method: remote thread registry
	"strlen",        // (str) -> length    det
}

// Native ids by rank in the sorted registry. An init assertion pins the
// correspondence so adding a name cannot silently renumber the switch.
const (
	natClock = iota
	natGC
	natHeapUsed
	natIDHash
	natInterrupted
	natIsRemote
	natNanotime
	natParseInt
	natPollEvents
	natRandom
	natRandRange
	natReadLine
	natRemoteDict
	natRemoteThreads
	natStrlen
)

func init() {
	want := []string{
		natClock: "clock", natGC: "gc", natHeapUsed: "heapused",
		natIDHash: "idhash", natInterrupted: "interrupted",
		natIsRemote: "isremote", natNanotime: "nanotime",
		natParseInt: "parseint", natPollEvents: "pollevents",
		natRandom: "random", natRandRange: "randrange",
		natReadLine: "readline", natRemoteDict: "remotedict",
		natRemoteThreads: "remotethreads", natStrlen: "strlen",
	}
	if !sort.StringsAreSorted(nativeNames) || len(want) != len(nativeNames) {
		panic("vm: native registry out of sync with nat* ids")
	}
	for i, n := range nativeNames {
		if want[i] != n {
			panic("vm: native registry out of sync with nat* ids: " + n)
		}
	}
}

// nativeID returns the stable trace identifier for a native name.
func nativeID(name string) int {
	i := sort.SearchStrings(nativeNames, name)
	if i < len(nativeNames) && nativeNames[i] == name {
		return i
	}
	return -1
}

// doNativeID dispatches a Native instruction by its registry id. Recorded
// natives return their results through the VM's scratch buffer: the trace
// sink encodes the slice before returning, so nothing retains it.
func (vm *VM) doNativeID(t *threads.Thread, id, nargs int) (control, int, error) {
	switch id {
	case natClock:
		// Wall-clock reads use the dedicated clock channel shared with the
		// scheduler's timer machinery.
		return ctrlNext, 0, vm.push(t, uint64(vm.readClock()), false)

	case natNanotime:
		vals := vm.eng.NativeCall(id, func() []int64 {
			vm.natBuf[0] = time.Now().UnixNano()
			return vm.natBuf[:]
		})
		return vm.pushNativeResult(t, vals)

	case natRandom:
		vals := vm.eng.NativeCall(id, func() []int64 {
			vm.natBuf[0] = vm.rngHost.Int63()
			return vm.natBuf[:]
		})
		return vm.pushNativeResult(t, vals)

	case natRandRange:
		n, err := vm.popPrim(t)
		if err != nil {
			return 0, 0, err
		}
		if n <= 0 {
			return 0, 0, fmt.Errorf("randrange bound %d must be positive", n)
		}
		vals := vm.eng.NativeCall(id, func() []int64 {
			vm.natBuf[0] = vm.rngHost.Int63n(n)
			return vm.natBuf[:]
		})
		return vm.pushNativeResult(t, vals)

	case natReadLine:
		// The recorded artifact is the byte payload; the array holding it
		// is allocated identically in both modes.
		b := vm.eng.ReadLine()
		a, err := vm.allocArray(heap.KindByteArr, len(b))
		if err != nil {
			return 0, 0, err
		}
		copy(vm.h.Bytes(a), b)
		return ctrlNext, 0, vm.push(t, uint64(a), true)

	case natIDHash:
		// Deterministic precisely because DejaVu keeps allocation (and
		// hence every address) identical across record and replay — the
		// property the symmetric-allocation ablation breaks.
		a, err := vm.popRef(t)
		if err != nil {
			return 0, 0, err
		}
		return ctrlNext, 0, vm.push(t, uint64(a), false)

	case natGC:
		vm.GC()
		return ctrlNext, 0, vm.push(t, 0, false)

	case natHeapUsed:
		return ctrlNext, 0, vm.push(t, uint64(vm.h.Used()), false)

	case natInterrupted:
		v := boolWord(t.Interrupted)
		t.Interrupted = false
		return ctrlNext, 0, vm.push(t, v, false)

	case natStrlen:
		a, err := vm.popObj(t)
		if err != nil {
			return 0, 0, err
		}
		if vm.isStub(a) {
			b, err := vm.remoteBytes(a)
			if err != nil {
				return 0, 0, err
			}
			return ctrlNext, 0, vm.push(t, uint64(len(b)), false)
		}
		if vm.h.KindOf(a) != heap.KindByteArr {
			return 0, 0, fmt.Errorf("strlen on non-string")
		}
		return ctrlNext, 0, vm.push(t, uint64(vm.h.Len(a)), false)

	case natParseInt:
		a, err := vm.popObj(t)
		if err != nil {
			return 0, 0, err
		}
		var text string
		if vm.isStub(a) {
			b, err := vm.remoteBytes(a)
			if err != nil {
				return 0, 0, err
			}
			text = string(b)
		} else {
			if vm.h.KindOf(a) != heap.KindByteArr {
				return 0, 0, fmt.Errorf("parseint on non-string")
			}
			text = string(vm.h.Bytes(a))
		}
		v, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("parseint: %v", err)
		}
		return ctrlNext, 0, vm.push(t, uint64(v), false)

	case natPollEvents:
		return vm.nativePollEvents(t, id)

	// Remote reflection mapped methods and helpers (§3.1, §3.4). These
	// run only in tool VMs; they read the remote space and are
	// deterministic with respect to it.
	case natRemoteDict:
		return vm.nativeRemoteDict(t)
	case natRemoteThreads:
		return vm.nativeRemoteThreads(t)
	case natIsRemote:
		return vm.nativeIsRemote(t)
	}
	return 0, 0, fmt.Errorf("native %q not dispatched", nativeNames[id])
}

func (vm *VM) pushNativeResult(t *threads.Thread, vals []int64) (control, int, error) {
	if err := vm.eng.Err(); err != nil {
		return 0, 0, err
	}
	if len(vals) != 1 {
		return 0, 0, fmt.Errorf("native returned %d results, expected 1", len(vals))
	}
	return ctrlNext, 0, vm.push(t, uint64(vals[0]), false)
}

// nativePollEvents demonstrates JNI callbacks: it polls a (simulated)
// external event source and invokes the handler method once per event with
// (index, payload). Event count and payloads are host entropy — captured
// during record; during replay the callbacks are regenerated from the
// trace at the same execution point and the source is never consulted.
//
// Stack: [handlerName(ref), max(prim)] -> eventCount(prim).
func (vm *VM) nativePollEvents(t *threads.Thread, id int) (control, int, error) {
	maxEv, err := vm.popPrim(t)
	if err != nil {
		return 0, 0, err
	}
	nameRef, err := vm.popObj(t)
	if err != nil {
		return 0, 0, err
	}
	if vm.h.KindOf(nameRef) != heap.KindByteArr {
		return 0, 0, fmt.Errorf("pollevents handler name must be a string")
	}
	handlerName := string(vm.h.Bytes(nameRef))
	handler, ok := vm.prog.MethodByName(handlerName)
	if !ok {
		return 0, 0, fmt.Errorf("pollevents: no method %q", handlerName)
	}
	if handler.NArgs != 2 {
		return 0, 0, fmt.Errorf("pollevents handler %q must take 2 args", handlerName)
	}
	if maxEv < 0 {
		maxEv = 0
	}

	var cbErr error
	apply := func(cb int, params []int64) {
		if cbErr != nil {
			return
		}
		if cb != handler.ID {
			cbErr = fmt.Errorf("pollevents: callback method %d recorded, handler is %d", cb, handler.ID)
			return
		}
		cbErr = vm.callNested(t, handler, params)
	}
	vals := vm.eng.NativeWithCallbacks(id, func(emit func(int, []int64)) []int64 {
		n := int64(0)
		if maxEv > 0 {
			n = vm.rngHost.Int63n(maxEv + 1)
		}
		for i := int64(0); i < n; i++ {
			// Scratch buffer: the trace sink encodes the params before
			// emit returns, and callNested copies them onto the stack.
			vm.cbBuf[0] = i
			vm.cbBuf[1] = vm.rngHost.Int63n(1000)
			emit(handler.ID, vm.cbBuf[:])
		}
		vm.natBuf[0] = n
		return vm.natBuf[:]
	}, apply)
	if cbErr != nil {
		return 0, 0, cbErr
	}
	return vm.pushNativeResult(t, vals)
}

// callNested runs a method to completion on the current thread, re-entering
// the interpreter. Used for native-to-VM callbacks; blocking operations are
// rejected inside it, and preemption is deferred to the outer loop, like a
// pending thread-switch bit held across a native frame. The handler must
// return void (Ret).
func (vm *VM) callNested(t *threads.Thread, m *bytecode.Method, params []int64) error {
	baseFP := t.FP
	baseSP := t.SP
	for _, p := range params {
		if err := vm.push(t, uint64(p), false); err != nil {
			return err
		}
	}
	if err := vm.pushFrame(t, m, t.SP-len(params)); err != nil {
		return err
	}
	vm.nestedDepth++
	defer func() { vm.nestedDepth-- }()
	vm.yieldHere(t) // method prologue (switches deferred while nested)
	for t.FP != baseFP {
		if vm.cfg.MaxEvents > 0 && vm.events >= vm.cfg.MaxEvents {
			return ErrEventBudget
		}
		if err := vm.execOne(t); err != nil {
			return err
		}
		if err := vm.eng.Err(); err != nil {
			return err
		}
		if vm.halted {
			// Halt cannot unwind the native frame mid-callback: the loop
			// would either run past the callback's code or leave the stack
			// imbalanced. Reject it deterministically, like blocking ops.
			return fmt.Errorf("halt inside a native callback")
		}
	}
	if t.SP != baseSP {
		return fmt.Errorf("callback %s left %d values on the stack", m.FullName(), t.SP-baseSP)
	}
	return nil
}

// NativeSignature reports a registered native's operand and result counts,
// for the bytecode verifier.
func NativeSignature(name string) (pops, pushes int, ok bool) {
	switch name {
	case "clock", "nanotime", "random", "readline", "gc", "heapused",
		"interrupted", "remotedict", "remotethreads":
		return 0, 1, true
	case "randrange", "idhash", "strlen", "parseint", "isremote":
		return 1, 1, true
	case "pollevents":
		return 2, 1, true
	}
	return 0, 0, false
}

// NativeCoverage classifies a native for the static non-determinism
// coverage audit: "recorded" natives have their results captured in the
// trace and regenerated during replay, "deterministic" natives are pure
// functions of replayed VM state and re-run in both modes, and "remote"
// natives read the remote-reflection channel, which bypasses the
// record/replay engine entirely (tool VMs only). ok is false for names
// outside the registry.
func NativeCoverage(name string) (kind string, ok bool) {
	switch name {
	case "clock", "nanotime", "random", "randrange", "readline", "pollevents":
		return "recorded", true
	case "gc", "heapused", "idhash", "interrupted", "isremote", "parseint", "strlen":
		return "deterministic", true
	case "remotedict", "remotethreads":
		return "remote", true
	}
	return "", false
}

// VerifyProgram statically verifies prog against this VM's native
// registry, returning the per-method facts (max operand depth, return
// shape).
func VerifyProgram(prog *bytecode.Program) ([]bytecode.MethodFacts, error) {
	return bytecode.Verify(prog, bytecode.VerifyConfig{Natives: NativeSignature})
}
