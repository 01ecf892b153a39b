// Package debugger is the DejaVu-based replay debugger (§3, §4): it drives
// a replaying VM, stops at breakpoints, and inspects all program state
// through remote reflection, never executing code in — or allocating in —
// the application VM. Single-stepping and breakpoint Continue advance one
// vm.Step at a time; travel and breakpoint-free Continue run at Run speed
// through vm.RunUntil, which stops on the same instruction boundaries.
//
// Time travel comes from pairing deterministic replay with Igor-style
// checkpoints: every forward replay snapshots the VM each CheckpointEvery
// events, and a journal-backed debugger also has the recording's durable
// segment checkpoints. A travel, backward or forward, starts from whichever
// of the VM's own position, an in-memory snapshot and a durable checkpoint
// starts latest at or before the target, restored into the same VM, and
// re-replays forward from there. That is exact because replay is
// deterministic, and no travel replays more than the gap between two
// checkpoints. A debugger keeps its one VM for its whole life: it
// re-executes in place and is never rebuilt.
package debugger

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"dejavu/internal/heap"
	"dejavu/internal/obs"
	"dejavu/internal/remoteref"
	"dejavu/internal/threads"
	"dejavu/internal/trace"
	"dejavu/internal/vm"
)

// StopReason says why Continue returned.
type StopReason int

const (
	StopBreakpoint StopReason = iota
	StopHalted
	StopStep
	StopError
)

func (r StopReason) String() string {
	switch r {
	case StopBreakpoint:
		return "breakpoint"
	case StopHalted:
		return "halted"
	case StopStep:
		return "step"
	default:
		return "error"
	}
}

type bpKey struct {
	methodID int
	pc       int
}

// Debugger wraps one VM (normally replaying) with control and inspection.
// It is the one stable handle for a debugging session, and its VM is the
// same for the debugger's whole life: travel restores checkpoints into it
// in place.
type Debugger struct {
	VM    *vm.VM
	World *remoteref.World

	breakpoints map[bpKey]int // -> breakpoint number
	nextBPNum   int

	// CheckpointEvery controls time-travel granularity (instructions per
	// checkpoint); 0 disables checkpointing. The default, 25,000 events,
	// replays at Run speed in about the time 10,000 Steps took; a denser
	// cadence costs memory, since forward travel keeps every checkpoint
	// it takes until MaxCheckpoints thins them.
	CheckpointEvery uint64
	MaxCheckpoints  int
	checkpoints     []*vm.Snapshot

	tainted bool // the user intentionally altered application state

	// journal is the segmented recording a journal-backed debugger replays
	// (nil for a flat trace), and reader the whole of it, loaded, which VM
	// replays: travel restores its durable checkpoints into VM in place.
	// obs counts those restores.
	journal *trace.Journal
	reader  *trace.Reader
	obs     *obs.Registry
	reseeds uint64
	travels uint64
}

// New builds a debugger over m.
func New(m *vm.VM) *Debugger {
	return &Debugger{
		VM:              m,
		World:           remoteref.NewLocalWorld(m),
		breakpoints:     map[bpKey]int{},
		CheckpointEvery: 25_000,
		MaxCheckpoints:  64,
	}
}

// ErrNoSuchMethod reports an unresolvable breakpoint location.
var ErrNoSuchMethod = errors.New("debugger: no such method")

// BreakAt sets a breakpoint at (Class.method, pc) and returns its number.
func (d *Debugger) BreakAt(method string, pc int) (int, error) {
	m, ok := d.VM.Program().MethodByName(method)
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNoSuchMethod, method)
	}
	if pc < 0 || pc >= len(m.Code) {
		return 0, fmt.Errorf("debugger: pc %d out of range for %s (%d instructions)", pc, method, len(m.Code))
	}
	d.nextBPNum++
	d.breakpoints[bpKey{methodID: m.ID, pc: pc}] = d.nextBPNum
	return d.nextBPNum, nil
}

// BreakAtLine sets a breakpoint at the first instruction of method whose
// line table entry equals line.
func (d *Debugger) BreakAtLine(method string, line int) (int, error) {
	m, ok := d.VM.Program().MethodByName(method)
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNoSuchMethod, method)
	}
	for pc, ln := range m.Lines {
		if int(ln) == line {
			return d.BreakAt(method, pc)
		}
	}
	return 0, fmt.Errorf("debugger: %s has no instruction at line %d", method, line)
}

// ClearBreakpoint removes breakpoint number n.
func (d *Debugger) ClearBreakpoint(n int) bool {
	for k, v := range d.breakpoints {
		if v == n {
			delete(d.breakpoints, k)
			return true
		}
	}
	return false
}

// Breakpoints lists active breakpoints as display strings, sorted by
// number.
func (d *Debugger) Breakpoints() []string {
	type bp struct {
		n   int
		txt string
	}
	var list []bp
	for k, n := range d.breakpoints {
		m := d.VM.Program().Methods[k.methodID]
		line := 0
		if k.pc < len(m.Lines) {
			line = int(m.Lines[k.pc])
		}
		list = append(list, bp{n, fmt.Sprintf("#%d %s pc=%d line=%d", n, m.FullName(), k.pc, line)})
	}
	sort.Slice(list, func(i, j int) bool { return list[i].n < list[j].n })
	out := make([]string, len(list))
	for i, b := range list {
		out[i] = b.txt
	}
	return out
}

func (d *Debugger) atBreakpoint() (int, bool) {
	if done, err := d.VM.EnsureDispatched(); done || err != nil {
		return 0, false
	}
	_, mid, pc, ok := d.VM.CurrentSite()
	if !ok {
		return 0, false
	}
	n, hit := d.breakpoints[bpKey{methodID: mid, pc: pc}]
	return n, hit
}

// maybeCheckpoint takes a periodic snapshot for time travel.
func (d *Debugger) maybeCheckpoint() {
	if d.CheckpointEvery == 0 {
		return
	}
	ev := d.VM.Events()
	if len(d.checkpoints) > 0 && ev < d.checkpoints[len(d.checkpoints)-1].Events()+d.CheckpointEvery {
		return
	}
	snap, err := d.VM.Snapshot()
	if err != nil {
		return
	}
	d.checkpoints = append(d.checkpoints, snap)
	if len(d.checkpoints) > d.MaxCheckpoints {
		// Thin out: drop every other old checkpoint.
		kept := d.checkpoints[:0]
		for i, s := range d.checkpoints {
			if i%2 == 0 || i >= len(d.checkpoints)-8 {
				kept = append(kept, s)
			}
		}
		d.checkpoints = kept
	}
}

// StepInstr executes up to n instructions, stopping early at breakpoints.
func (d *Debugger) StepInstr(n int) (StopReason, error) {
	for i := 0; i < n; i++ {
		d.maybeCheckpoint()
		done, err := d.VM.Step()
		if err != nil {
			return StopError, err
		}
		if done {
			return StopHalted, nil
		}
		if i < n-1 {
			if _, hit := d.atBreakpoint(); hit {
				return StopBreakpoint, nil
			}
		}
	}
	return StopStep, nil
}

// Continue runs until a breakpoint, the program end, or an error. The
// first instruction is executed unconditionally so Continue makes progress
// from a breakpoint it is currently stopped at. With no breakpoints set it
// runs at Run speed, dropping checkpoints on the way (see replayTo).
func (d *Debugger) Continue() (StopReason, error) {
	if len(d.breakpoints) == 0 {
		if err := d.replayTo(math.MaxUint64); err != nil {
			return StopError, err
		}
		return StopHalted, nil
	}
	first := true
	for {
		if !first {
			if _, hit := d.atBreakpoint(); hit {
				return StopBreakpoint, nil
			}
		}
		first = false
		d.maybeCheckpoint()
		done, err := d.VM.Step()
		if err != nil {
			return StopError, err
		}
		if done {
			return StopHalted, nil
		}
	}
}

// TravelTo moves execution to the given event count, backward or forward.
// It restores the latest start at or before event (see restoreNearest)
// and replays forward from it. It lands on the first instruction boundary
// at or after event, where a Step loop would; only the program end stops
// it earlier.
func (d *Debugger) TravelTo(event uint64) error {
	d.travels++
	if d.journal != nil {
		// A flight window's events before its origin were evicted and
		// cannot be reconstructed.
		event = max(event, d.journal.Origin())
	}
	if err := d.restoreNearest(event); err != nil {
		return err
	}
	return d.replayTo(event)
}

// restoreNearest moves the VM to the latest start at or before event: the
// VM's own position, an in-memory checkpoint, or (journal only) a durable
// checkpoint. On equal starts the VM's position beats an in-memory
// checkpoint, which beats a durable one: no copy beats a memcpy, which
// beats a file read. With no start at all, as when SetStatic dropped the
// in-memory checkpoints, travel refuses.
func (d *Debugger) restoreNearest(event uint64) error {
	from, have := d.VM.Events(), d.VM.Events() <= event
	var best *vm.Snapshot
	for _, s := range d.checkpoints {
		if s.Events() <= event && (!have || s.Events() > from) {
			best, from, have = s, s.Events(), true
		}
	}
	restored, err := d.restoreDurable(event, from, have)
	switch {
	case err != nil:
		return err
	case restored:
		return nil
	case best != nil:
		return d.VM.Restore(best)
	case have:
		return nil
	case d.tainted:
		return fmt.Errorf("debugger: session is tainted (state was modified); travel back to event %d would discard the modification", event)
	default:
		return fmt.Errorf("debugger: no checkpoint at or before event %d (earliest: %s)", event, d.earliest())
	}
}

// Travels reports how many TravelTo calls the debugger has served.
func (d *Debugger) Travels() uint64 { return d.travels }

// replayTo runs the VM forward through RunUntil until Events() >= event
// or the program ends, in legs that end where the next periodic
// checkpoint is due, and takes that checkpoint as the next leg starts.
// Forward travel thus leaves checkpoints every CheckpointEvery events,
// so no later rewind replays more than that from the nearest one.
func (d *Debugger) replayTo(event uint64) error {
	for d.VM.Events() < event {
		d.maybeCheckpoint()
		stop := event
		if n := len(d.checkpoints); d.CheckpointEvery > 0 && n > 0 {
			if due := d.checkpoints[n-1].Events() + d.CheckpointEvery; due < stop {
				stop = due
			}
		}
		done, err := d.VM.RunUntil(stop)
		if err != nil || done {
			return err
		}
	}
	return nil
}

func (d *Debugger) earliest() string {
	if len(d.checkpoints) == 0 {
		return "none"
	}
	return fmt.Sprintf("event %d", d.checkpoints[0].Events())
}

// Status summarizes the stopped VM for display.
func (d *Debugger) Status() string {
	var sb strings.Builder
	tid, mid, pc, ok := d.VM.CurrentSite()
	fmt.Fprintf(&sb, "events=%d halted=%v checkpoints=%d\n", d.VM.Events(), d.VM.Halted(), len(d.checkpoints))
	if d.tainted {
		sb.WriteString("WARNING: state was modified by the user; replay accuracy is no longer guaranteed\n")
	}
	if ok {
		m := d.VM.Program().Methods[mid]
		line := 0
		if pc < len(m.Lines) {
			line = int(m.Lines[pc])
		}
		fmt.Fprintf(&sb, "thread %d at %s pc=%d line=%d: %s\n", tid, m.FullName(), pc, line, m.Code[pc])
	}
	if nyp, pending, err := d.VM.Engine().PendingSwitch(); err == nil {
		fmt.Fprintf(&sb, "replay: next preemptive switch in %d yield points (pending=%v)\n", nyp, pending)
	}
	return sb.String()
}

// StackTrace renders thread tid's stack via remote reflection.
func (d *Debugger) StackTrace(tid int) (string, error) {
	ths, err := d.World.Threads()
	if err != nil {
		return "", err
	}
	if tid < 0 || tid >= len(ths) {
		return "", fmt.Errorf("debugger: no thread %d", tid)
	}
	frames, err := ths[tid].Stack()
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	for i, f := range frames {
		name := "?"
		if f.MethodID >= 0 && f.MethodID < len(d.VM.Program().Methods) {
			name = d.VM.Program().Methods[f.MethodID].FullName()
		}
		fmt.Fprintf(&sb, "#%d %s pc=%d line=%d\n", i, name, f.PC, f.Line)
	}
	return sb.String(), nil
}

// ThreadList renders the thread viewer (§4).
func (d *Debugger) ThreadList() (string, error) {
	ths, err := d.World.Threads()
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	for _, rt := range ths {
		id, err := rt.ID()
		if err != nil {
			return "", err
		}
		st, err := rt.State()
		if err != nil {
			return "", err
		}
		y, err := rt.Yields()
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&sb, "thread %d: %v yields=%d\n", id, threads.State(st), y)
	}
	return sb.String(), nil
}

// PrintStatic renders "Class.static" via remote reflection.
func (d *Debugger) PrintStatic(qualified string) (string, error) {
	cls, field, ok := strings.Cut(qualified, ".")
	if !ok {
		return "", fmt.Errorf("debugger: want Class.static, got %q", qualified)
	}
	v, isRef, err := d.World.StaticValue(cls, field)
	if err != nil {
		return "", err
	}
	if isRef {
		return fmt.Sprintf("%s = ref @%d", qualified, v), nil
	}
	return fmt.Sprintf("%s = %d", qualified, int64(v)), nil
}

// Disassembly renders the method containing the current stop, marking the
// current pc — the paper's machine-instruction view.
func (d *Debugger) Disassembly() (string, error) {
	_, mid, pc, ok := d.VM.CurrentSite()
	if !ok {
		return "", errors.New("debugger: no current site")
	}
	m := d.VM.Program().Methods[mid]
	var sb strings.Builder
	fmt.Fprintf(&sb, "method %s\n", m.FullName())
	for i, in := range m.Code {
		marker := "  "
		if i == pc {
			marker = "=>"
		}
		line := 0
		if i < len(m.Lines) {
			line = int(m.Lines[i])
		}
		fmt.Fprintf(&sb, "%s %4d (line %3d): %s\n", marker, i, line, in)
	}
	return sb.String(), nil
}

// Tainted reports whether the user has intentionally altered application
// state. Per the paper (§3.2, footnote 3), a tool may let the user modify
// the replayed application, but doing so irrevocably breaks record/replay
// symmetry: replay can be resumed, yet no accuracy guarantee remains.
func (d *Debugger) Tainted() bool { return d.tainted }

// SetStatic writes a primitive value into "Class.static" of the
// application VM at the user's request, marking the session tainted.
// Reference statics are refused (the tool cannot create remote objects,
// §3.2: "we need not create new objects in the remote space").
func (d *Debugger) SetStatic(qualified string, value int64) error {
	cls, field, ok := strings.Cut(qualified, ".")
	if !ok {
		return fmt.Errorf("debugger: want Class.static, got %q", qualified)
	}
	prog := d.VM.Program()
	c, okc := prog.Class(cls)
	if !okc {
		return fmt.Errorf("debugger: no class %q", cls)
	}
	slot, oks := c.StaticSlot(field)
	if !oks {
		return fmt.Errorf("debugger: class %s has no static %s", cls, field)
	}
	if c.Statics[slot].IsRef {
		return fmt.Errorf("debugger: refusing to overwrite reference static %s (cannot create remote objects)", qualified)
	}
	// Read the statics object address through remote reflection, then
	// poke the one word. This is the single intentional write the paper
	// permits, and it taints the session.
	rc, err := d.World.FindClass(cls)
	if err != nil {
		return err
	}
	statics, err := rc.Statics()
	if err != nil {
		return err
	}
	d.VM.Heap().StoreWord(statics.Addr, slot, uint64(value))
	d.tainted = true
	// Checkpoints predating the edit would resurrect untainted state and
	// silently "undo" the user's change; drop them.
	d.checkpoints = nil
	return nil
}

// HeapSummary walks the application heap (read-only) and renders object
// counts and bytes per type — the debugger's class-viewer statistics (§4).
func (d *Debugger) HeapSummary() (string, error) {
	h := d.VM.Heap()
	types := h.Types()
	type bucket struct {
		count int
		bytes int
	}
	perType := map[string]*bucket{}
	get := func(name string) *bucket {
		b, ok := perType[name]
		if !ok {
			b = &bucket{}
			perType[name] = b
		}
		return b
	}
	buf := make([]byte, h.Used())
	if err := h.ReadBytes(h.ActiveBase(), buf); err != nil {
		return "", err
	}
	pos := heapWord // the first word of the space is the reserved null slot
	for pos+heapWord <= len(buf) {
		hdr := leWord(buf[pos:])
		typeID, length, kind := heap.DecodeHeader(hdr)
		size := heapWord + payloadSize(kind, length)
		name := "?"
		switch kind {
		case heap.KindObject:
			if typeID < len(types.Names) {
				name = types.Names[typeID]
			}
		case heap.KindInt64Arr:
			name = "[int64]"
		case heap.KindRefArr:
			name = "[ref]"
		case heap.KindByteArr:
			name = "[byte]"
		}
		b := get(name)
		b.count++
		b.bytes += size
		pos += size
	}
	names := make([]string, 0, len(perType))
	for n := range perType {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return perType[names[i]].bytes > perType[names[j]].bytes })
	var sb strings.Builder
	fmt.Fprintf(&sb, "heap: %d bytes live, %d collections\n", d.VM.Heap().Used(), d.VM.Heap().Collections)
	for _, n := range names {
		b := perType[n]
		fmt.Fprintf(&sb, "  %-16s %6d objects %8d bytes\n", n, b.count, b.bytes)
	}
	return sb.String(), nil
}

const heapWord = heap.WordSize

func leWord(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func payloadSize(kind heap.Kind, length int) int {
	if kind == heap.KindByteArr {
		return (length + heapWord - 1) &^ (heapWord - 1)
	}
	return length * heapWord
}

// InspectObject renders the fields of the program object at addr via
// remote reflection.
func (d *Debugger) InspectObject(addr uint64) (string, error) {
	fields, err := d.World.InspectObject(heap.Addr(addr))
	if err != nil {
		return "", err
	}
	o, err := d.World.Object(heap.Addr(addr))
	if err != nil {
		return "", err
	}
	cls := d.VM.Program().Classes[o.TypeID]
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s @%d\n", cls.Name, addr)
	for _, f := range cls.Fields {
		v := fields[f.Name]
		if f.IsRef {
			fmt.Fprintf(&sb, "  %-12s = ref @%d\n", f.Name, v)
		} else {
			fmt.Fprintf(&sb, "  %-12s = %d\n", f.Name, int64(v))
		}
	}
	return sb.String(), nil
}
