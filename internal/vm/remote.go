package vm

import (
	"fmt"

	"dejavu/internal/bytecode"
	"dejavu/internal/heap"
	"dejavu/internal/ptrace"
	"dejavu/internal/threads"
)

// Remote-reflection bytecode extension (§3.4 of the paper).
//
// A VM configured as a *tool VM* can operate on remote objects: local
// proxy objects ("remote stubs") that record the type and address of a
// real object in another VM's address space. The reference bytecodes —
// getf, aload, arrlen, instof, callv, prints, and the string natives —
// check their receiver against the stub type and, when it is remote,
// satisfy the operation by peeking the remote address space instead of
// local memory. Values derived from a remote object are remote themselves:
// a reference loaded through a stub materializes as a new stub.
//
// The initial stub comes from a mapped method — the `remotedict` native
// intercepts what would be the VM_Dictionary accessor and returns a stub
// for the remote dictionary (§3.1). Because the tool VM loads the same
// program image (enforced by hash), class layouts, reference maps, and
// method bodies agree between the spaces, so the *same* reflection
// bytecode runs against local or remote data transparently — the paper's
// central transparency property. Remote objects are read-only: putf,
// astore, and monitor operations on stubs trap.

// remoteWorld is the tool VM's view of one remote VM.
type remoteWorld struct {
	mem   ptrace.Mem
	roots func() (dict, threads heap.Addr, err error)
}

// Remote stub layout: an object of the synthetic stub type with two
// primitive slots.
const (
	stubAddr  = 0 // remote address
	stubInfo  = 1 // packed remote header: typeID | len<<20? — stored as raw header word
	stubSlots = 2
)

// LayoutHash identifies a program's class and method layout, ignoring the
// entry point: a tool VM may start in a different method (its debugger
// main) while sharing the application's classes, which is what remote
// reflection requires ("the tool JVM loads the same classes").
func LayoutHash(p *bytecode.Program) uint64 {
	cp := *p
	cp.Entry = 0
	return ProgramHash(&cp)
}

// EnableRemoteReflection turns this VM into a tool VM attached to a remote
// address space reachable through mem, with roots reading the remote
// boot-image record. remoteLayout must equal this VM's own layout hash:
// the two spaces must share class and method layouts for the stub
// machinery to interpret remote words.
func (vm *VM) EnableRemoteReflection(mem ptrace.Mem, roots func() (heap.Addr, heap.Addr, error), remoteLayout uint64) error {
	if remoteLayout != LayoutHash(vm.prog) {
		return fmt.Errorf("vm: remote reflection requires identical class layouts (local %x, remote %x)", LayoutHash(vm.prog), remoteLayout)
	}
	vm.remote = &remoteWorld{mem: mem, roots: roots}
	return nil
}

// AttachLocalPeer is a convenience for in-process tool/application pairs.
func (vm *VM) AttachLocalPeer(app *VM) error {
	return vm.EnableRemoteReflection(
		ptrace.Local{H: app.Heap()},
		func() (heap.Addr, heap.Addr, error) {
			d, t := app.Roots()
			return d, t, nil
		},
		LayoutHash(app.Program()),
	)
}

// isStub reports whether a local object is a remote stub.
func (vm *VM) isStub(a heap.Addr) bool {
	return vm.remote != nil && a != 0 &&
		vm.h.KindOf(a) == heap.KindObject && vm.h.TypeID(a) == vm.tidStub
}

func (vm *VM) peekRemoteWord(a heap.Addr) (uint64, error) {
	var buf [8]byte
	if err := vm.remote.mem.Peek(a, buf[:]); err != nil {
		return 0, err
	}
	return uint64(buf[0]) | uint64(buf[1])<<8 | uint64(buf[2])<<16 | uint64(buf[3])<<24 |
		uint64(buf[4])<<32 | uint64(buf[5])<<40 | uint64(buf[6])<<48 | uint64(buf[7])<<56, nil
}

// makeStub materializes a local proxy for the remote entity at raddr,
// recording its type and address (§3.3). Null stays null (pushed as a
// plain null reference).
func (vm *VM) makeStub(raddr heap.Addr) (heap.Addr, bool, error) {
	if raddr == 0 {
		return 0, true, nil
	}
	hdr, err := vm.peekRemoteWord(raddr)
	if err != nil {
		return 0, false, err
	}
	s, err := vm.allocObject(vm.tidStub, stubSlots)
	if err != nil {
		return 0, false, err
	}
	vm.h.StoreWord(s, stubAddr, uint64(raddr))
	vm.h.StoreWord(s, stubInfo, hdr)
	return s, true, nil
}

// stubMeta decodes a stub's recorded remote header.
func (vm *VM) stubMeta(stub heap.Addr) (raddr heap.Addr, typeID, length int, kind heap.Kind) {
	raddr = heap.Addr(vm.h.LoadWord(stub, stubAddr))
	typeID, length, kind = heap.DecodeHeader(vm.h.LoadWord(stub, stubInfo))
	return
}

// remoteRefness reports whether payload slot i of a remote entity holds a
// reference, using the shared type metadata ("the tool JVM loads the same
// classes").
func (vm *VM) remoteRefness(typeID int, kind heap.Kind, i int) bool {
	switch kind {
	case heap.KindRefArr:
		return true
	case heap.KindObject:
		if typeID < len(vm.h.Types().RefMaps) {
			rm := vm.h.Types().RefMaps[typeID]
			return i < len(rm) && rm[i]
		}
	}
	return false
}

// remoteGetF implements getf on a remote stub: peek the remote field; if
// it is a reference, derive a new stub.
func (vm *VM) remoteGetF(stub heap.Addr, slot int) (uint64, bool, error) {
	raddr, typeID, length, kind := vm.stubMeta(stub)
	if kind != heap.KindObject {
		return 0, false, fmt.Errorf("remote getf on non-object")
	}
	if slot < 0 || slot >= length {
		return 0, false, fmt.Errorf("remote field slot %d out of range (%d fields)", slot, length)
	}
	v, err := vm.peekRemoteWord(heap.PayloadAddr(raddr, slot))
	if err != nil {
		return 0, false, err
	}
	if vm.remoteRefness(typeID, kind, slot) {
		s, _, err := vm.makeStub(heap.Addr(v))
		return uint64(s), true, err
	}
	return v, false, nil
}

// remoteALoad implements aload on a remote stub array.
func (vm *VM) remoteALoad(stub heap.Addr, idx int) (uint64, bool, error) {
	raddr, _, length, kind := vm.stubMeta(stub)
	if idx < 0 || idx >= length {
		return 0, false, fmt.Errorf("remote index %d out of bounds (length %d)", idx, length)
	}
	switch kind {
	case heap.KindInt64Arr:
		v, err := vm.peekRemoteWord(heap.PayloadAddr(raddr, idx))
		return v, false, err
	case heap.KindRefArr:
		v, err := vm.peekRemoteWord(heap.PayloadAddr(raddr, idx))
		if err != nil {
			return 0, false, err
		}
		s, _, err := vm.makeStub(heap.Addr(v))
		return uint64(s), true, err
	case heap.KindByteArr:
		var b [1]byte
		if err := vm.remote.mem.Peek(raddr+heap.HeaderBytes+heap.Addr(idx), b[:]); err != nil {
			return 0, false, err
		}
		return uint64(b[0]), false, nil
	default:
		return 0, false, fmt.Errorf("remote aload on non-array")
	}
}

// remoteBytes fetches a remote byte array's payload (used by prints and
// the string natives so remote strings behave like local ones — the
// paper's debugger "clones remote arrays of primitives", §3.3).
func (vm *VM) remoteBytes(stub heap.Addr) ([]byte, error) {
	raddr, _, length, kind := vm.stubMeta(stub)
	if kind != heap.KindByteArr {
		return nil, fmt.Errorf("remote string operation on kind %d", kind)
	}
	buf := make([]byte, length)
	if err := vm.remote.mem.Peek(raddr+heap.HeaderBytes, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// remoteCallTarget resolves a virtual call on a remote stub receiver: the
// method comes from the *remote* object's class, but the body executes in
// the tool VM — on the stub — which is exactly how the same reflection
// method serves both spaces (Fig. 3's getLineNumberAt).
func (vm *VM) remoteCallTarget(stub heap.Addr, name string, nargs int) (int, error) {
	_, typeID, _, kind := vm.stubMeta(stub)
	if kind != heap.KindObject || typeID >= vm.numClasses {
		return 0, fmt.Errorf("remote callv %s: receiver is not a program object (type %d)", name, typeID)
	}
	target, ok := vm.prog.Classes[typeID].Method(name)
	if !ok {
		return 0, fmt.Errorf("remote class %s has no method %s", vm.prog.Classes[typeID].Name, name)
	}
	if target.NArgs != nargs {
		return 0, fmt.Errorf("remote callv %s: %d args passed, %d expected", name, nargs, target.NArgs)
	}
	return target.ID, nil
}

// nativeRemoteDict is the mapped method (§3.1): it returns the initial
// remote object — a stub for the remote VM_Dictionary — without invoking
// anything in the remote space.
func (vm *VM) nativeRemoteDict(t *threads.Thread) (uint64, bool, error) {
	if vm.remote == nil {
		return 0, false, fmt.Errorf("remotedict: no remote world attached")
	}
	dict, _, err := vm.remote.roots()
	if err != nil {
		return 0, false, err
	}
	s, _, err := vm.makeStub(dict)
	if err != nil {
		return 0, false, err
	}
	return uint64(s), true, nil
}

// nativeRemoteThreads maps the remote thread registry.
func (vm *VM) nativeRemoteThreads(t *threads.Thread) (uint64, bool, error) {
	if vm.remote == nil {
		return 0, false, fmt.Errorf("remotethreads: no remote world attached")
	}
	_, ths, err := vm.remote.roots()
	if err != nil {
		return 0, false, err
	}
	s, _, err := vm.makeStub(ths)
	if err != nil {
		return 0, false, err
	}
	return uint64(s), true, nil
}

// nativeIsRemote returns 1 if the popped reference is a remote stub.
func (vm *VM) nativeIsRemote(t *threads.Thread) (uint64, bool, error) {
	a, err := vm.popRef(t)
	if err != nil {
		return 0, false, err
	}
	return boolWord(vm.isStub(a)), false, nil
}
