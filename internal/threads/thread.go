// Package threads implements the VM's quasi-preemptive green-thread
// package: ready queue, per-object monitors with entry and wait queues,
// and a timer queue for sleep and timed wait.
//
// As in Jalapeño, this thread package is part of the virtual machine being
// replayed: all of its state is an ordinary, deterministic function of the
// event sequence. That is what makes programmer-visible thread switches
// (monitor contention, wait/notify) replay for free — only preemptive
// switches need to be logged, and those are handled by the DejaVu engine,
// not here.
package threads

import (
	"fmt"

	"dejavu/internal/heap"
)

// State is a thread's scheduling state.
type State uint8

const (
	Ready State = iota
	Running
	BlockedMonitor // blocked in monitorenter
	Waiting        // in a wait set, no timeout
	TimedWaiting   // in a wait set with a timeout
	Sleeping
	Terminated
)

var stateNames = [...]string{"ready", "running", "blocked", "waiting", "timed-waiting", "sleeping", "terminated"}

func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// Thread is one virtual machine thread. The interpreter stores its
// execution stack in a heap-resident int64 array (StackSeg) so that, as in
// Jalapeño, activation stacks are heap objects a remote debugger can read
// with raw memory peeks; Tags is the GC's shadow reference map for those
// slots.
type Thread struct {
	ID    int
	State State

	// Execution state, owned by the interpreter.
	StackSeg heap.Addr // int64-array heap object holding frames
	Tags     []bool    // per-slot reference map, aligned with StackSeg
	FP       int       // current frame base slot (-1 when no frame)
	SP       int       // next free stack slot

	// Scheduling state.
	WaitingOn      heap.Addr // monitor object while blocked or waiting
	WakeAt         int64     // wall-clock deadline for sleep/timed wait (ms)
	Interrupted    bool
	SavedRecursion int // monitor recursion saved across wait

	// DejaVu logical clock (§2.4): yield points executed by this thread
	// with the clock live. The delta since the last preemptive switch is
	// the engine's one nyp counter (Fig. 2), not a per-thread copy.
	YieldCount uint64

	// EventCount counts instructions executed by this thread.
	EventCount uint64

	// MirrorObj is the VM_Thread mirror object in the VM heap.
	MirrorObj heap.Addr

	// Shadow of the values last flushed into MirrorObj by the interpreter
	// (vm.flushMirror), letting it skip the store of every word that has
	// not changed. Skipping an equal-valued store never alters heap bytes, so
	// the image stays bit-identical. MirValid is false until the first
	// flush; checkpoint decode leaves it false, forcing a full (idempotent)
	// flush after restore.
	MirFP     int
	MirSP     int
	MirState  State
	MirYields uint64
	MirValid  bool
}
