// Package vm assembles the virtual machine the paper replays: the bytecode
// interpreter, the green-thread package, the copying-collected heap, and
// the native ("JNI") interface, instrumented at yield points by the DejaVu
// engine.
//
// Like Jalapeño, the VM keeps its own runtime structures in its object
// heap: class and method mirrors (with line-number tables), per-thread
// mirrors, and the activation stacks themselves, so a tool in another
// process can inspect everything by raw memory peeks — the substrate for
// remote reflection.
package vm

import (
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"time"

	"dejavu/internal/bytecode"
	"dejavu/internal/core"
	"dejavu/internal/heap"
	"dejavu/internal/threads"
)

// Frame header layout within a thread's stack segment. A frame occupies
// [FP, FP+FrameHeaderSlots+NLocals) plus its operand stack above.
const (
	FrameCallerFP = 0 // caller's frame base, -1 for a thread's bottom frame
	FrameMethod   = 1 // method ID
	FramePC       = 2 // current pc (flushed every instruction)
	FrameSavedSP  = 3 // caller's operand SP to restore on return
	FrameHeader   = 4
)

// Mirror object field slots. These layouts are the contract between the VM
// and remote reflection: a tool process interprets raw heap words using
// these offsets, exactly as the paper's debugger interprets Jalapeño's
// VM_Class/VM_Method/VM_Thread objects.
const (
	MClassName    = 0 // ref: byte array, class name
	MClassMethods = 1 // ref: ref array of VM_Method mirrors
	MClassStatics = 2 // ref: statics object (own type per class)
	MClassID      = 3 // prim
	MClassSlots   = 4

	MMethodName    = 0 // ref: byte array, method name
	MMethodLines   = 1 // ref: int64 array, line number table
	MMethodID      = 2 // prim
	MMethodNArgs   = 3 // prim
	MMethodNLocals = 4 // prim
	MMethodCodeLen = 5 // prim
	MMethodSlots   = 6

	MThreadID     = 0 // prim
	MThreadStack  = 1 // ref: int64 array, the activation stack segment
	MThreadFP     = 2 // prim
	MThreadSP     = 3 // prim
	MThreadState  = 4 // prim (threads.State)
	MThreadYields = 5 // prim: logical clock
	MThreadSlots  = 6
)

// Observer receives execution events for digests and experiment harnesses.
type Observer interface {
	OnStep(threadID, methodID, pc int, op bytecode.Opcode)
	OnOutput(b []byte)
	OnSwitch(toThreadID int)
}

// MemHook observes heap field/array accesses; the related-work baselines
// (Instant Replay, Recap read-logging) instrument through it.
type MemHook interface {
	OnHeapAccess(threadID int, obj heap.Addr, slot int, isWrite bool, val uint64)
}

// SyncHook observes monitor operations; replay-based tools (the race
// detector) reconstruct lock ownership through it.
type SyncHook interface {
	OnMonitor(threadID int, obj heap.Addr, acquired bool)
}

// JournalSink is the rotation surface a segmented trace journal offers a
// recording VM (trace.SegmentWriter and flightrec.Ring implement it). The
// VM owns the safe point: it polls RotatePending at instruction
// boundaries and answers with Rotate, handing over its checkpoint bytes
// (AppendCheckpoint) and position, so a segment boundary always falls
// where a checkpoint is well-defined.
type JournalSink interface {
	// RotatePending reports that a rotation policy threshold was crossed.
	RotatePending() bool
	// Rotate seals the current segment and makes state (the VM's
	// checkpoint bytes), the instruction count, and the record-side yield
	// position durable as the next segment's seed checkpoint. state is
	// borrowed for the call only: the VM encodes the next checkpoint into
	// the same buffer, so a sink that keeps the bytes must copy them.
	Rotate(state []byte, vmEvents, boundaryNYP uint64) error
}

// Config sizes and wires a VM.
type Config struct {
	HeapBytes    int // initial semispace size (default 1<<20)
	MaxHeapBytes int // total memory cap (default 1<<28)
	StackSlots   int // initial stack segment slots per thread (default 128)

	Engine *core.Engine // nil means an Off-mode engine
	// Observer sees every step, switch and output. Load reads it once: a
	// *Digest that keeps no tail (KeepEvents == 0 by then) is folded in
	// place at near-counter cost; any other observer is called per
	// instruction, and Run executes the unfused stream while it is set.
	Observer Observer
	MemHook  MemHook
	SyncHook SyncHook
	Stdout   io.Writer // optional echo of program output

	MaxEvents uint64        // abort after this many instructions (0 = unlimited)
	HostRand  int64         // seed for the host side of the `random` native
	IdleSleep time.Duration // host pause while all threads sleep (record/off)

	// GCStress forces a full collection before every Nth allocation
	// (1 = every allocation). Collections are deterministic, so stress
	// runs still record and replay exactly; program-visible behavior is
	// unchanged because GC is transparent. 0 disables.
	GCStress int

	// Journal, when set on a recording VM, drives segmented-journal
	// rotation: the VM polls RotatePending at instruction boundaries and
	// answers with Rotate. Step polls at every boundary; Run polls only
	// where the answer can have changed (slice boundaries and right after
	// an instruction that logged to the trace), which are the same
	// boundaries where Step rotates. The engine's TraceSink should be the
	// same object, so the sealed segments and the checkpoints stay in
	// step.
	Journal JournalSink
}

// VM is one virtual machine instance executing one program.
type VM struct {
	img  *Image
	prog *bytecode.Program
	cfg  Config

	h     *heap.Heap
	sched *threads.Scheduler
	eng   *core.Engine

	numClasses  int         // user classes (typeIDs 0..numClasses-1)
	staticsType []int       // classID -> typeID of its statics shape
	staticsObj  []heap.Addr // classID -> statics object
	tidVMClass  int
	tidVMMethod int
	tidVMThread int
	tidStub     int // remote-stub proxy objects (§3.4 bytecode extension)

	remote *remoteWorld // non-nil when this VM is a tool VM

	classMirrors  []heap.Addr
	methodMirrors []heap.Addr
	dict          heap.Addr // ref array of VM_Class: the VM_Dictionary
	threadsArr    heap.Addr // ref array of VM_Thread
	captureBuf    heap.Addr // DejaVu's symmetric capture buffer

	interned  []internEntry
	internIdx map[string]int

	out     outputSink
	rngHost *rand.Rand

	// frameNeed is the image's, per method ID: the stack slots pushFrame
	// reserves (header + locals + verified MaxStack + headroom).
	frameNeed []int

	// Config.Observer, split by Load: dig is a *Digest that keeps no
	// tail, folded in place by note; stepObs is any other observer,
	// served OnStep at dispatch (execOne, runSlice's boundary block).
	dig     *Digest
	stepObs Observer

	events      uint64
	stackGrows  uint64
	stressCount uint64
	halted      bool
	err         error
	nestedDepth int
	deferred    bool // a preemption requested inside a nested call

	// restoredBytes marks state restored by RestoreBytes, which Run,
	// RunUntil and Step execute under containCorruption.
	restoredBytes bool

	// decoded is the fused token-threaded instruction stream per method
	// ID, copied from the image on the first Run. It is per-VM (inline
	// caches are warmed in place) and derived purely from program
	// identity, so it is never invalidated by replay state.
	decoded [][]bytecode.DInstr
	// plain is the unfused stream, copied from the image on first use:
	// execOne (Step, native callbacks) runs every instruction from it, and
	// Run runs a slice's first instruction from it when a journal poll
	// must land between the components of a fused pair, as RunUntil does
	// the instruction before its stop.
	plain [][]bytecode.DInstr

	// checkAt is the event count at which the fast loop's per-instruction
	// boundary compare leaves the hot path: the MaxEvents budget or one
	// event before stopAt (see budgetAt), or 0 while pollDue asks for a
	// journal rotation poll (see journalLogged).
	checkAt uint64
	pollDue bool
	// stopAt is the pending RunUntil target; 0 while none is.
	stopAt uint64

	// Reusable scratch buffers that keep the record hot path
	// allocation-free: single-result native calls, pollevents callback
	// params, and print formatting.
	natBuf   [1]int64
	cbBuf    [2]int64
	printBuf []byte

	// ckptBuf holds the last journal checkpoint rotateJournal encoded; it
	// is reused by the next rotation. Kept last, clear of the fields the
	// dispatch loop reads.
	ckptBuf []byte
}

type internEntry struct {
	s    string
	addr heap.Addr
}

// ProgramHash identifies a program image for trace matching.
func ProgramHash(p *bytecode.Program) uint64 {
	h := fnv.New64a()
	h.Write(bytecode.EncodeImage(p))
	return h.Sum64()
}

// New loads prog into a fresh VM: NewImage, then Load. Callers that build
// more than one VM from a program should build its Image once.
func New(prog *bytecode.Program, cfg Config) (*VM, error) {
	img, err := NewImage(prog)
	if err != nil {
		return nil, err
	}
	return Load(img, cfg)
}

// Load builds a fresh VM from img: builds the runtime type table,
// allocates every mirror and interned string ("pre-loading all classes",
// §2.4 — class loading is symmetric by construction because it happens
// entirely during initialization), lets the DejaVu engine perform its
// symmetric setup, and spawns the main thread at the program entry.
func Load(img *Image, cfg Config) (*VM, error) {
	prog := img.prog
	if cfg.HeapBytes == 0 {
		cfg.HeapBytes = 1 << 20
	}
	if cfg.MaxHeapBytes == 0 {
		cfg.MaxHeapBytes = 1 << 28
	}
	if cfg.StackSlots == 0 {
		cfg.StackSlots = 128
	}
	if cfg.IdleSleep == 0 {
		cfg.IdleSleep = 100 * time.Microsecond
	}
	vm := &VM{
		img:       img,
		prog:      prog,
		cfg:       cfg,
		frameNeed: img.frameNeed,
		sched:     threads.NewScheduler(),
		internIdx: make(map[string]int, len(prog.Strings)+len(prog.Methods)+len(prog.Classes)),
		rngHost:   rand.New(rand.NewSource(cfg.HostRand + 1)),
	}
	vm.out.echo = cfg.Stdout
	if d, ok := cfg.Observer.(*Digest); ok && d.KeepEvents == 0 {
		vm.dig = d
	} else if cfg.Observer != nil {
		vm.stepObs = cfg.Observer
	}

	if cfg.Engine != nil {
		vm.eng = cfg.Engine
	} else {
		eng, err := core.NewEngine(core.DefaultConfig(core.ModeOff))
		if err != nil {
			return nil, err
		}
		vm.eng = eng
	}

	vm.h = heap.New(vm.buildTypeTable(), cfg.HeapBytes)
	if err := vm.loadMirrors(); err != nil {
		return nil, fmt.Errorf("vm: loading mirrors: %w", err)
	}
	if err := vm.eng.Begin(vm); err != nil {
		return nil, fmt.Errorf("vm: engine init: %w", err)
	}
	if _, err := vm.spawnThread(prog.Entry, nil, 0); err != nil {
		return nil, fmt.Errorf("vm: spawning main: %w", err)
	}
	return vm, nil
}

// buildTypeTable lays out runtime type IDs: user classes first (IDs match
// bytecode class IDs), then per-class statics shapes, then the mirrors.
func (vm *VM) buildTypeTable() *heap.TypeTable {
	tt := &heap.TypeTable{}
	vm.numClasses = len(vm.prog.Classes)
	for _, c := range vm.prog.Classes {
		refs := make([]bool, len(c.Fields))
		for i, f := range c.Fields {
			refs[i] = f.IsRef
		}
		tt.AddType(c.Name, refs)
	}
	vm.staticsType = make([]int, vm.numClasses)
	for i, c := range vm.prog.Classes {
		refs := make([]bool, len(c.Statics))
		for j, f := range c.Statics {
			refs[j] = f.IsRef
		}
		vm.staticsType[i] = tt.AddType(c.Name+"$Statics", refs)
	}
	vm.tidVMClass = tt.AddType("VM_Class", []bool{true, true, true, false})
	vm.tidVMMethod = tt.AddType("VM_Method", []bool{true, true, false, false, false, false})
	vm.tidVMThread = tt.AddType("VM_Thread", []bool{false, true, false, false, false, false})
	vm.tidStub = tt.AddType("RemoteStub", []bool{false, false})
	return tt
}

// loadMirrors materializes the runtime's reflective structures in the VM
// heap: interned strings, statics objects, VM_Method mirrors with line
// tables, VM_Class mirrors, and the VM_Dictionary.
//
// Rooting discipline: every allocation may trigger a collection that
// moves previously allocated objects, and Go locals are invisible to the
// collector. Each fresh address is therefore stored into a GC-visible
// root slot (the mirror arrays, or a field of an already-rooted object)
// before the next allocation, and container addresses are re-read from
// their root slots after any allocation.
func (vm *VM) loadMirrors() error {
	// Intern every string constant eagerly so SConst never allocates.
	// intern() itself roots each string before returning.
	for _, s := range vm.prog.Strings {
		if _, err := vm.intern(s); err != nil {
			return err
		}
	}
	vm.staticsObj = make([]heap.Addr, vm.numClasses)
	for i := range vm.prog.Classes {
		a, err := vm.allocObject(vm.staticsType[i], len(vm.prog.Classes[i].Statics))
		if err != nil {
			return err
		}
		vm.staticsObj[i] = a // rooted before the next allocation
	}
	vm.methodMirrors = make([]heap.Addr, len(vm.prog.Methods))
	for i, m := range vm.prog.Methods {
		// Allocate the mirror first and root it; fill fields one fresh
		// allocation at a time, re-reading the mirror from its root slot.
		mm, err := vm.allocObject(vm.tidVMMethod, MMethodSlots)
		if err != nil {
			return err
		}
		vm.methodMirrors[i] = mm
		name, err := vm.intern(m.FullName()) // may move the mirror
		if err != nil {
			return err
		}
		vm.h.StoreWord(vm.methodMirrors[i], MMethodName, uint64(name))
		lines, err := vm.allocArray(heap.KindInt64Arr, len(m.Code))
		if err != nil {
			return err
		}
		vm.h.StoreWord(vm.methodMirrors[i], MMethodLines, uint64(lines))
		for pc := range m.Code {
			var ln int64
			if pc < len(m.Lines) {
				ln = int64(m.Lines[pc])
			}
			vm.h.StoreWord(lines, pc, uint64(ln))
		}
		mm = vm.methodMirrors[i]
		vm.h.StoreWord(mm, MMethodID, uint64(m.ID))
		vm.h.StoreWord(mm, MMethodNArgs, uint64(m.NArgs))
		vm.h.StoreWord(mm, MMethodNLocals, uint64(m.NLocals))
		vm.h.StoreWord(mm, MMethodCodeLen, uint64(len(m.Code)))
	}
	vm.classMirrors = make([]heap.Addr, vm.numClasses)
	for i, c := range vm.prog.Classes {
		cm, err := vm.allocObject(vm.tidVMClass, MClassSlots)
		if err != nil {
			return err
		}
		vm.classMirrors[i] = cm
		vm.h.StoreWord(vm.classMirrors[i], MClassStatics, uint64(vm.staticsObj[i]))
		vm.h.StoreWord(vm.classMirrors[i], MClassID, uint64(i))
		name, err := vm.intern(c.Name)
		if err != nil {
			return err
		}
		vm.h.StoreWord(vm.classMirrors[i], MClassName, uint64(name))
		marr, err := vm.allocArray(heap.KindRefArr, len(c.Methods))
		if err != nil {
			return err
		}
		vm.h.StoreWord(vm.classMirrors[i], MClassMethods, uint64(marr))
		for j, m := range c.Methods {
			vm.h.StoreWord(marr, j, uint64(vm.methodMirrors[m.ID]))
		}
	}
	dict, err := vm.allocArray(heap.KindRefArr, vm.numClasses)
	if err != nil {
		return err
	}
	vm.dict = dict
	for i := range vm.classMirrors {
		vm.h.StoreWord(vm.dict, i, uint64(vm.classMirrors[i]))
	}
	ta, err := vm.allocArray(heap.KindRefArr, 0)
	if err != nil {
		return err
	}
	vm.threadsArr = ta
	return nil
}

// intern returns the heap byte array for s, allocating it once.
func (vm *VM) intern(s string) (heap.Addr, error) {
	if i, ok := vm.internIdx[s]; ok {
		return vm.interned[i].addr, nil
	}
	a, err := vm.allocArray(heap.KindByteArr, len(s))
	if err != nil {
		return 0, err
	}
	copy(vm.h.Bytes(a), s)
	vm.internIdx[s] = len(vm.interned)
	vm.interned = append(vm.interned, internEntry{s: s, addr: a})
	return a, nil
}

// --- Allocation with GC-on-demand ---

func (vm *VM) allocObject(typeID, fields int) (heap.Addr, error) {
	return vm.allocRetry(func() (heap.Addr, error) { return vm.h.AllocObject(typeID, fields) })
}

func (vm *VM) allocArray(kind heap.Kind, length int) (heap.Addr, error) {
	return vm.allocRetry(func() (heap.Addr, error) { return vm.h.AllocArray(kind, length) })
}

func (vm *VM) allocRetry(alloc func() (heap.Addr, error)) (heap.Addr, error) {
	if vm.cfg.GCStress > 0 {
		vm.stressCount++
		if vm.stressCount%uint64(vm.cfg.GCStress) == 0 {
			vm.GC()
		}
	}
	a, err := alloc()
	if err != heap.ErrOutOfMemory {
		return a, err
	}
	vm.GC()
	a, err = alloc()
	for err == heap.ErrOutOfMemory {
		if vm.h.MemSize()*2 > vm.cfg.MaxHeapBytes {
			return 0, fmt.Errorf("vm: heap limit of %d bytes exceeded", vm.cfg.MaxHeapBytes)
		}
		vm.h.Grow(vm.visitRoots, vm.stackRoots())
		a, err = alloc()
	}
	return a, err
}

// GC forces a copying collection at the current (safe) point.
func (vm *VM) GC() {
	vm.h.Collect(vm.visitRoots, vm.stackRoots())
}

func (vm *VM) stackRoots() []heap.StackRoot {
	ts := vm.sched.Threads()
	roots := make([]heap.StackRoot, 0, len(ts))
	for _, t := range ts {
		roots = append(roots, heap.StackRoot{Seg: &t.StackSeg, Tags: t.Tags, Limit: t.SP})
	}
	return roots
}

// visitRoots enumerates non-stack roots in a fixed order so collections
// are deterministic.
func (vm *VM) visitRoots(visit heap.RootVisitor) {
	visit(&vm.dict)
	visit(&vm.threadsArr)
	visit(&vm.captureBuf)
	for i := range vm.interned {
		visit(&vm.interned[i].addr)
	}
	for i := range vm.staticsObj {
		visit(&vm.staticsObj[i])
	}
	for i := range vm.classMirrors {
		visit(&vm.classMirrors[i])
	}
	for i := range vm.methodMirrors {
		visit(&vm.methodMirrors[i])
	}
	vm.sched.VisitRoots(visit)
}

// --- core.Host: the engine's symmetric side effects (§2.4) ---

// AllocCaptureBuffer implements core.Host.
func (vm *VM) AllocCaptureBuffer(n int) error {
	a, err := vm.allocArray(heap.KindByteArr, n)
	if err != nil {
		return err
	}
	vm.captureBuf = a
	return nil
}

// EnsureStackHeadroom implements core.Host.
func (vm *VM) EnsureStackHeadroom(slots int) error {
	t := vm.sched.Current()
	if t == nil || t.StackSeg == 0 {
		return nil
	}
	if vm.h.Len(t.StackSeg)-t.SP < slots {
		return vm.growStack(t, slots)
	}
	return nil
}

// --- Accessors ---

// Heap exposes the VM heap (for tools, the peek server, and tests).
func (vm *VM) Heap() *heap.Heap { return vm.h }

// Scheduler exposes the thread package.
func (vm *VM) Scheduler() *threads.Scheduler { return vm.sched }

// Engine returns the DejaVu engine attached to this VM.
func (vm *VM) Engine() *core.Engine { return vm.eng }

// Program returns the loaded program.
func (vm *VM) Program() *bytecode.Program { return vm.prog }

// Hash returns the program identity hash.
func (vm *VM) Hash() uint64 { return vm.img.hash }

// Output returns everything the program printed.
func (vm *VM) Output() []byte { return vm.out.buf }

// Events returns the number of instructions executed.
func (vm *VM) Events() uint64 { return vm.events }

// StackGrows returns how many stack-segment reallocations have happened
// across all threads (frame pre-sizing exists to keep this low).
func (vm *VM) StackGrows() uint64 { return vm.stackGrows }

// Halted reports whether execution finished.
func (vm *VM) Halted() bool { return vm.halted }

// MirrorTypeIDs returns the runtime type IDs of (VM_Class, VM_Method,
// VM_Thread) for tools that interpret raw memory.
func (vm *VM) MirrorTypeIDs() (class, method, thread int) {
	return vm.tidVMClass, vm.tidVMMethod, vm.tidVMThread
}

// NumUserClasses reports how many type IDs belong to program classes.
func (vm *VM) NumUserClasses() int { return vm.numClasses }

type outputSink struct {
	buf  []byte
	echo io.Writer
}

func (o *outputSink) write(b []byte) {
	o.buf = append(o.buf, b...)
	if o.echo != nil {
		o.echo.Write(b)
	}
}

// CurrentSite reports the execution site (thread, method, pc) of the next
// instruction to execute, used by the debugger's breakpoint check. ok is
// false while no thread is dispatched.
func (vm *VM) CurrentSite() (threadID, methodID, pc int, ok bool) {
	t := vm.sched.Current()
	if t == nil || t.FP < 0 || vm.halted {
		return 0, 0, 0, false
	}
	methodID = int(vm.h.LoadWord(t.StackSeg, t.FP+FrameMethod))
	pc = int(int64(vm.h.LoadWord(t.StackSeg, t.FP+FramePC)))
	return t.ID, methodID, pc, true
}

// Roots implements ptrace.RootSource: the current addresses of the mapped
// reflection roots. This is configuration-level data (the boot-image
// record), not interpreted execution.
func (vm *VM) Roots() (dict, threads heap.Addr) { return vm.dict, vm.threadsArr }
