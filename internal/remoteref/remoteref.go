// Package remoteref implements remote reflection (§3 of the paper): a tool
// process inspects the application VM's objects through raw memory peeks,
// without the application VM executing a single instruction.
//
// The key object is the RemoteObject, a local proxy holding the type and
// address of the real object in the remote VM (§3.3). Proxies originate
// from *mapped methods* — named roots like VM_Dictionary.getClasses that
// return the initial remote objects — and every value derived from a
// remote object is itself remote (§3.1). The tool side interprets remote
// words with the same layout rules the VM uses (the tool "loads the same
// classes"): the program image, the mirror field offsets, and the heap
// header encoding are the shared reflection interface.
//
// Substitution note (documented in DESIGN.md): the paper extends a Java
// interpreter's reference bytecodes to operate on remote objects; here the
// tool-side interpreter is the host Go runtime, and the extension is this
// package's accessor methods. The load-bearing properties are preserved:
// queries are pure peeks, and the remote VM runs no code.
package remoteref

import (
	"fmt"

	"dejavu/internal/bytecode"
	"dejavu/internal/heap"
	"dejavu/internal/ptrace"
	"dejavu/internal/vm"
)

// World is the tool's view of one remote VM: the shared program image
// (class metadata), the memory peek channel, and the mapped roots.
type World struct {
	Prog *bytecode.Program
	Mem  ptrace.Mem

	// Layout facts published by the application VM at startup (these are
	// configuration, not live state — they never change).
	NumClasses  int
	TidVMClass  int
	TidVMMethod int
	TidVMThread int

	// Roots reads the *current* addresses of the mapped roots. The
	// dictionary and thread registry move under the copying collector (and
	// the registry is reallocated on thread creation), so the tool must
	// re-read this boot-image record on every query, exactly as a ptrace
	// debugger re-reads a known static location.
	Roots func() (dict, threads heap.Addr, err error)
}

// NewLocalWorld builds a World for an in-process VM (tests and the
// single-process debugger); production tools use a ptrace.Client Mem.
func NewLocalWorld(m *vm.VM) *World {
	c, mt, th := m.MirrorTypeIDs()
	return &World{
		Prog:        m.Program(),
		Mem:         ptrace.Local{H: m.Heap()},
		NumClasses:  m.NumUserClasses(),
		TidVMClass:  c,
		TidVMMethod: mt,
		TidVMThread: th,
		Roots: func() (heap.Addr, heap.Addr, error) {
			d, t := m.Roots()
			return d, t, nil
		},
	}
}

// NewRemoteWorld builds a World over a ptrace TCP client, given the shared
// program image and the layout facts published by the application VM.
func NewRemoteWorld(prog *bytecode.Program, client *ptrace.Client, numClasses, tidClass, tidMethod, tidThread int) *World {
	return &World{
		Prog:        prog,
		Mem:         client,
		NumClasses:  numClasses,
		TidVMClass:  tidClass,
		TidVMMethod: tidMethod,
		TidVMThread: tidThread,
		Roots: func() (heap.Addr, heap.Addr, error) {
			return client.Roots()
		},
	}
}

// RemoteObject is the local proxy for an object in the remote VM: its
// recorded type and real address (§3.3).
type RemoteObject struct {
	W      *World
	Addr   heap.Addr
	TypeID int
	Kind   heap.Kind
	Len    int
}

func (o *RemoteObject) String() string {
	return fmt.Sprintf("remote{addr=%d type=%d kind=%d len=%d}", o.Addr, o.TypeID, o.Kind, o.Len)
}

// peekWord reads one word of remote memory.
func (w *World) peekWord(a heap.Addr) (uint64, error) {
	var buf [8]byte
	if err := w.Mem.Peek(a, buf[:]); err != nil {
		return 0, err
	}
	return uint64(buf[0]) | uint64(buf[1])<<8 | uint64(buf[2])<<16 | uint64(buf[3])<<24 |
		uint64(buf[4])<<32 | uint64(buf[5])<<40 | uint64(buf[6])<<48 | uint64(buf[7])<<56, nil
}

// Object materializes a proxy for the remote entity at addr by peeking its
// header.
func (w *World) Object(addr heap.Addr) (*RemoteObject, error) {
	if addr == 0 {
		return nil, nil // null stays null
	}
	hdr, err := w.peekWord(addr)
	if err != nil {
		return nil, err
	}
	typeID, length, kind := heap.DecodeHeader(hdr)
	return &RemoteObject{W: w, Addr: addr, TypeID: typeID, Kind: kind, Len: length}, nil
}

// Word reads primitive payload slot i.
func (o *RemoteObject) Word(i int) (uint64, error) {
	if i < 0 || i >= o.Len {
		return 0, fmt.Errorf("remoteref: slot %d out of range (len %d) in %v", i, o.Len, o)
	}
	return o.W.peekWord(heap.PayloadAddr(o.Addr, i))
}

// Int reads payload slot i as a signed integer.
func (o *RemoteObject) Int(i int) (int64, error) {
	v, err := o.Word(i)
	return int64(v), err
}

// Ref reads payload slot i as a reference and returns its proxy; derived
// values from a remote object are remote themselves (§3.1).
func (o *RemoteObject) Ref(i int) (*RemoteObject, error) {
	v, err := o.Word(i)
	if err != nil {
		return nil, err
	}
	return o.W.Object(heap.Addr(v))
}

// Bytes reads a remote byte array's payload.
func (o *RemoteObject) Bytes() ([]byte, error) {
	if o.Kind != heap.KindByteArr {
		return nil, fmt.Errorf("remoteref: Bytes on %v", o)
	}
	buf := make([]byte, o.Len)
	if err := o.W.Mem.Peek(o.Addr+heap.HeaderBytes, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// Str reads a remote byte array as a string.
func (o *RemoteObject) Str() (string, error) {
	b, err := o.Bytes()
	return string(b), err
}

// --- Mapped methods (§3.1): the named roots that start reflection ---

// Dictionary is the mapped method "VM_Dictionary.getClasses": it returns
// the remote VM_Class array without invoking anything remotely.
func (w *World) Dictionary() (*RemoteObject, error) {
	d, _, err := w.Roots()
	if err != nil {
		return nil, err
	}
	return w.Object(d)
}

// ThreadRegistry is the mapped method "VM_Scheduler.getThreads".
func (w *World) ThreadRegistry() (*RemoteObject, error) {
	_, t, err := w.Roots()
	if err != nil {
		return nil, err
	}
	return w.Object(t)
}

// --- Typed wrappers over the mirror layouts ---

// RemoteClass wraps a VM_Class mirror.
type RemoteClass struct{ Obj *RemoteObject }

// Classes reads the remote class dictionary.
func (w *World) Classes() ([]RemoteClass, error) {
	dict, err := w.Dictionary()
	if err != nil {
		return nil, err
	}
	out := make([]RemoteClass, dict.Len)
	for i := range out {
		c, err := dict.Ref(i)
		if err != nil {
			return nil, err
		}
		if c == nil || c.TypeID != w.TidVMClass {
			return nil, fmt.Errorf("remoteref: dictionary entry %d is not a VM_Class", i)
		}
		out[i] = RemoteClass{Obj: c}
	}
	return out, nil
}

// Name reads the remote class name.
func (c RemoteClass) Name() (string, error) {
	n, err := c.Obj.Ref(vm.MClassName)
	if err != nil {
		return "", err
	}
	return n.Str()
}

// ID reads the remote class ID.
func (c RemoteClass) ID() (int, error) {
	v, err := c.Obj.Int(vm.MClassID)
	return int(v), err
}

// Methods reads the remote VM_Method mirrors of this class.
func (c RemoteClass) Methods() ([]RemoteMethod, error) {
	arr, err := c.Obj.Ref(vm.MClassMethods)
	if err != nil {
		return nil, err
	}
	out := make([]RemoteMethod, arr.Len)
	for i := range out {
		m, err := arr.Ref(i)
		if err != nil {
			return nil, err
		}
		out[i] = RemoteMethod{Obj: m}
	}
	return out, nil
}

// Statics returns the class's statics object (may be a zero-field object).
func (c RemoteClass) Statics() (*RemoteObject, error) {
	return c.Obj.Ref(vm.MClassStatics)
}

// RemoteMethod wraps a VM_Method mirror.
type RemoteMethod struct{ Obj *RemoteObject }

// Name reads the qualified method name.
func (m RemoteMethod) Name() (string, error) {
	n, err := m.Obj.Ref(vm.MMethodName)
	if err != nil {
		return "", err
	}
	return n.Str()
}

// ID reads the method ID.
func (m RemoteMethod) ID() (int, error) {
	v, err := m.Obj.Int(vm.MMethodID)
	return int(v), err
}

// NArgs reads the argument count.
func (m RemoteMethod) NArgs() (int, error) {
	v, err := m.Obj.Int(vm.MMethodNArgs)
	return int(v), err
}

// NLocals reads the local slot count.
func (m RemoteMethod) NLocals() (int, error) {
	v, err := m.Obj.Int(vm.MMethodNLocals)
	return int(v), err
}

// LineNumberAt is the paper's Fig. 3 reflection method: it consults the
// method's line table — an int array in the remote heap — and returns the
// source line for offset, or 0 when out of range.
func (m RemoteMethod) LineNumberAt(offset int) (int, error) {
	lines, err := m.Obj.Ref(vm.MMethodLines)
	if err != nil {
		return 0, err
	}
	if lines == nil || offset < 0 || offset >= lines.Len {
		return 0, nil
	}
	v, err := lines.Int(offset)
	return int(v), err
}

// RemoteThread wraps a VM_Thread mirror.
type RemoteThread struct{ Obj *RemoteObject }

// Threads reads the remote thread registry.
func (w *World) Threads() ([]RemoteThread, error) {
	arr, err := w.ThreadRegistry()
	if err != nil {
		return nil, err
	}
	out := make([]RemoteThread, arr.Len)
	for i := range out {
		t, err := arr.Ref(i)
		if err != nil {
			return nil, err
		}
		if t == nil || t.TypeID != w.TidVMThread {
			return nil, fmt.Errorf("remoteref: thread entry %d is not a VM_Thread", i)
		}
		out[i] = RemoteThread{Obj: t}
	}
	return out, nil
}

// ID reads the thread id.
func (t RemoteThread) ID() (int, error) {
	v, err := t.Obj.Int(vm.MThreadID)
	return int(v), err
}

// State reads the scheduling state (threads.State numeric value).
func (t RemoteThread) State() (int, error) {
	v, err := t.Obj.Int(vm.MThreadState)
	return int(v), err
}

// Yields reads the thread's logical clock.
func (t RemoteThread) Yields() (uint64, error) {
	return t.Obj.Word(vm.MThreadYields)
}

// Frame is one decoded activation record from a remote stack walk.
type Frame struct {
	FP       int
	MethodID int
	PC       int
	Line     int
}

// Stack walks the thread's activation stack — a heap-resident int64 array
// — from the current frame to the bottom, using only memory peeks. This is
// the debugger's stack trace (§3: the JVM "must not execute the debugger
// and its reflective methods"; here it indeed executes nothing).
func (t RemoteThread) Stack() ([]Frame, error) {
	seg, err := t.Obj.Ref(vm.MThreadStack)
	if err != nil || seg == nil {
		return nil, err
	}
	fpv, err := t.Obj.Int(vm.MThreadFP)
	if err != nil {
		return nil, err
	}
	var frames []Frame
	fp := int(fpv)
	for fp >= 0 && len(frames) < 10_000 {
		mid, err := seg.Int(fp + vm.FrameMethod)
		if err != nil {
			return nil, err
		}
		pc, err := seg.Int(fp + vm.FramePC)
		if err != nil {
			return nil, err
		}
		line := 0
		if int(mid) >= 0 && int(mid) < len(t.Obj.W.Prog.Methods) {
			m := t.Obj.W.Prog.Methods[mid]
			if int(pc) < len(m.Lines) {
				line = int(m.Lines[pc])
			}
		}
		frames = append(frames, Frame{FP: fp, MethodID: int(mid), PC: int(pc), Line: line})
		caller, err := seg.Int(fp + vm.FrameCallerFP)
		if err != nil {
			return nil, err
		}
		fp = int(caller)
	}
	return frames, nil
}

// Local reads local variable slot i of frame f on this thread's stack.
func (t RemoteThread) Local(f Frame, i int) (uint64, error) {
	seg, err := t.Obj.Ref(vm.MThreadStack)
	if err != nil || seg == nil {
		return 0, fmt.Errorf("remoteref: no stack segment: %v", err)
	}
	return seg.Word(f.FP + vm.FrameHeader + i)
}

// FindClass resolves a remote class by name.
func (w *World) FindClass(name string) (RemoteClass, error) {
	classes, err := w.Classes()
	if err != nil {
		return RemoteClass{}, err
	}
	for _, c := range classes {
		n, err := c.Name()
		if err != nil {
			return RemoteClass{}, err
		}
		if n == name {
			return c, nil
		}
	}
	return RemoteClass{}, fmt.Errorf("remoteref: no remote class %q", name)
}

// FindMethod resolves a remote method by qualified name, as the Fig. 3
// debugger does via VM_Dictionary.getMethods.
func (w *World) FindMethod(full string) (RemoteMethod, error) {
	classes, err := w.Classes()
	if err != nil {
		return RemoteMethod{}, err
	}
	for _, c := range classes {
		methods, err := c.Methods()
		if err != nil {
			return RemoteMethod{}, err
		}
		for _, m := range methods {
			n, err := m.Name()
			if err != nil {
				return RemoteMethod{}, err
			}
			if n == full {
				return m, nil
			}
		}
	}
	return RemoteMethod{}, fmt.Errorf("remoteref: no remote method %q", full)
}

// StaticValue reads static slot idx of class by name.
func (w *World) StaticValue(className string, staticName string) (uint64, bool, error) {
	c, err := w.FindClass(className)
	if err != nil {
		return 0, false, err
	}
	id, err := c.ID()
	if err != nil {
		return 0, false, err
	}
	if id < 0 || id >= len(w.Prog.Classes) {
		return 0, false, fmt.Errorf("remoteref: remote class id %d out of range", id)
	}
	slot, ok := w.Prog.Classes[id].StaticSlot(staticName)
	if !ok {
		return 0, false, fmt.Errorf("remoteref: class %s has no static %s", className, staticName)
	}
	statics, err := c.Statics()
	if err != nil {
		return 0, false, err
	}
	v, err := statics.Word(slot)
	isRef := w.Prog.Classes[id].Statics[slot].IsRef
	return v, isRef, err
}

// InspectObject renders a remote program object's fields by name, using
// the shared class metadata.
func (w *World) InspectObject(addr heap.Addr) (map[string]uint64, error) {
	o, err := w.Object(addr)
	if err != nil || o == nil {
		return nil, err
	}
	if o.Kind != heap.KindObject || o.TypeID >= w.NumClasses {
		return nil, fmt.Errorf("remoteref: %v is not a program object", o)
	}
	c := w.Prog.Classes[o.TypeID]
	out := make(map[string]uint64, len(c.Fields))
	for i, f := range c.Fields {
		v, err := o.Word(i)
		if err != nil {
			return nil, err
		}
		out[f.Name] = v
	}
	return out, nil
}
