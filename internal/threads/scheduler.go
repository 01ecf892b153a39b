package threads

import (
	"errors"
	"fmt"
	"sort"

	"dejavu/internal/heap"
)

// Scheduler is the uniprocessor thread package. Exactly one thread runs at
// a time; all transitions are deterministic functions of the calls made by
// the interpreter. Preemption policy lives outside (the DejaVu engine
// decides *when* to switch; the scheduler only decides *to whom*).
type Scheduler struct {
	threads []*Thread
	readyQ  []int
	current int // running thread ID, or -1

	monitors map[heap.Addr]*Monitor
	monOrder []heap.Addr // creation order, for deterministic GC root visits
	monPool  []*Monitor  // retired idle monitors, reused to avoid per-sync allocation

	timers   []timerEntry
	timerSeq uint64

	// changed lists, once each, the threads whose State was written since
	// the last TakeChanged; changedMark[id] is set while id is listed.
	// Both live here rather than in Thread, so Thread copies and the
	// snapshot codec carry no bookkeeping of the interpreter's flushes.
	changed     []int
	changedMark []bool
}

type timerEntry struct {
	WakeAt int64
	Seq    uint64
	TID    int
}

// NewScheduler creates an empty scheduler.
func NewScheduler() *Scheduler {
	return &Scheduler{current: -1, monitors: map[heap.Addr]*Monitor{}}
}

// NewThread registers a thread and returns it in Ready state (not yet
// enqueued; the caller enqueues after initializing its stack).
func (s *Scheduler) NewThread() *Thread {
	t := &Thread{ID: len(s.threads), State: Ready, FP: -1}
	s.threads = append(s.threads, t)
	s.changedMark = append(s.changedMark, false)
	s.markChanged(t.ID)
	return t
}

// setState writes t's scheduling state and lists t as changed. Every
// State write of the scheduler goes through it.
func (s *Scheduler) setState(t *Thread, st State) {
	t.State = st
	s.markChanged(t.ID)
}

// markChanged lists thread id as changed unless it is listed already.
func (s *Scheduler) markChanged(id int) {
	if !s.changedMark[id] {
		s.changedMark[id] = true
		s.changed = append(s.changed, id)
	}
}

// TakeChanged returns the IDs of the threads whose State was written
// since the previous call, each once, in order of first change, and
// empties the list. A new scheduler and Restore list every thread. The
// slice is only valid until the next State write.
func (s *Scheduler) TakeChanged() []int {
	ids := s.changed
	for _, id := range ids {
		s.changedMark[id] = false
	}
	s.changed = s.changed[:0]
	return ids
}

// Thread returns the thread with the given ID.
func (s *Scheduler) Thread(id int) (*Thread, bool) {
	if id < 0 || id >= len(s.threads) {
		return nil, false
	}
	return s.threads[id], true
}

// Threads returns all threads in creation order.
func (s *Scheduler) Threads() []*Thread { return s.threads }

// Current returns the running thread, or nil.
func (s *Scheduler) Current() *Thread {
	if s.current < 0 {
		return nil
	}
	return s.threads[s.current]
}

// Enqueue appends t to the ready queue.
func (s *Scheduler) Enqueue(t *Thread) {
	s.setState(t, Ready)
	s.readyQ = append(s.readyQ, t.ID)
}

// LiveCount returns the number of non-terminated threads.
func (s *Scheduler) LiveCount() int {
	n := 0
	for _, t := range s.threads {
		if t.State != Terminated {
			n++
		}
	}
	return n
}

// ErrDeadlock is reported when no thread is runnable and no timer can ever
// fire.
var ErrDeadlock = errors.New("threads: deadlock — all live threads blocked with no pending timers")

// PickNext dispatches the next ready thread (FIFO), returning nil if the
// ready queue is empty. The previously running thread must already have
// been re-enqueued, blocked, or terminated by the caller.
func (s *Scheduler) PickNext() *Thread {
	if len(s.readyQ) == 0 {
		s.current = -1
		return nil
	}
	id := s.readyQ[0]
	// Dequeue by shifting in place: re-slicing (readyQ[1:]) would walk
	// the backing array forward and force every later Enqueue append to
	// reallocate — a Go-side allocation per context switch. The queue is
	// at most the live thread count, so the copy is trivially cheap.
	n := copy(s.readyQ, s.readyQ[1:])
	s.readyQ = s.readyQ[:n]
	t := s.threads[id]
	s.setState(t, Running)
	s.current = id
	return t
}

// Preempt moves the running thread to the back of the ready queue.
func (s *Scheduler) Preempt(t *Thread) {
	s.Enqueue(t)
	s.current = -1
}

// Terminate marks t dead.
func (s *Scheduler) Terminate(t *Thread) {
	s.setState(t, Terminated)
	if s.current == t.ID {
		s.current = -1
	}
}

// --- Monitor operations (deterministic thread switches, §2.2) ---

// MonEnter attempts to acquire obj's monitor for t. On contention the
// thread blocks in the FIFO entry queue and the caller must switch.
func (s *Scheduler) MonEnter(t *Thread, obj heap.Addr) (acquired bool) {
	m := s.monitorFor(obj)
	if m.Owner == -1 {
		m.Owner = t.ID
		m.Recursion = 1
		return true
	}
	if m.Owner == t.ID {
		m.Recursion++
		return true
	}
	s.setState(t, BlockedMonitor)
	t.WaitingOn = obj
	m.EntryQ = append(m.EntryQ, t.ID)
	s.current = -1
	return false
}

// MonExit releases one recursion level of obj's monitor. On full release
// the first entry-queue thread (if any) acquires and becomes ready.
func (s *Scheduler) MonExit(t *Thread, obj heap.Addr) error {
	m, ok := s.monitors[obj]
	if !ok || m.Owner != t.ID {
		return fmt.Errorf("threads: thread %d exits monitor %d it does not own", t.ID, obj)
	}
	m.Recursion--
	if m.Recursion > 0 {
		return nil
	}
	m.Owner = -1
	s.grantIfFree(obj, m)
	s.dropIfIdle(obj, m)
	return nil
}

// grantIfFree hands a free monitor to the head of its entry queue.
func (s *Scheduler) grantIfFree(obj heap.Addr, m *Monitor) {
	if m.Owner != -1 || len(m.EntryQ) == 0 {
		return
	}
	id := m.EntryQ[0]
	n := copy(m.EntryQ, m.EntryQ[1:])
	m.EntryQ = m.EntryQ[:n]
	w := s.threads[id]
	m.Owner = id
	m.Recursion = w.SavedRecursion
	if m.Recursion == 0 {
		m.Recursion = 1
	}
	w.SavedRecursion = 0
	w.WaitingOn = 0
	s.Enqueue(w)
}

// Wait puts t in obj's wait set, fully releasing the monitor. wakeAt < 0
// means wait without timeout; otherwise the timer queue will move the
// thread to the entry queue at its deadline.
func (s *Scheduler) Wait(t *Thread, obj heap.Addr, wakeAt int64) error {
	m, ok := s.monitors[obj]
	if !ok || m.Owner != t.ID {
		return fmt.Errorf("threads: thread %d waits on monitor %d it does not own", t.ID, obj)
	}
	t.SavedRecursion = m.Recursion
	m.Owner = -1
	m.Recursion = 0
	m.WaitQ = append(m.WaitQ, t.ID)
	t.WaitingOn = obj
	if wakeAt >= 0 {
		s.setState(t, TimedWaiting)
		t.WakeAt = wakeAt
		s.addTimer(wakeAt, t.ID)
	} else {
		s.setState(t, Waiting)
	}
	s.grantIfFree(obj, m)
	s.current = -1
	return nil
}

// Notify moves the first waiter on obj (if any) to the entry queue. It
// returns the awakened thread's ID or -1. Per the paper, whether a notify
// succeeds depends only on replayed state, so nothing is logged.
func (s *Scheduler) Notify(t *Thread, obj heap.Addr) (int, error) {
	m, ok := s.monitors[obj]
	if !ok || m.Owner != t.ID {
		return -1, fmt.Errorf("threads: thread %d notifies monitor %d it does not own", t.ID, obj)
	}
	if len(m.WaitQ) == 0 {
		return -1, nil
	}
	id := m.WaitQ[0]
	n := copy(m.WaitQ, m.WaitQ[1:])
	m.WaitQ = m.WaitQ[:n]
	w := s.threads[id]
	s.cancelTimer(id)
	s.setState(w, BlockedMonitor)
	m.EntryQ = append(m.EntryQ, id)
	return id, nil
}

// NotifyAll moves every waiter to the entry queue in FIFO order.
func (s *Scheduler) NotifyAll(t *Thread, obj heap.Addr) (int, error) {
	m, ok := s.monitors[obj]
	if !ok || m.Owner != t.ID {
		return 0, fmt.Errorf("threads: thread %d notifies monitor %d it does not own", t.ID, obj)
	}
	n := len(m.WaitQ)
	for _, id := range m.WaitQ {
		w := s.threads[id]
		s.cancelTimer(id)
		s.setState(w, BlockedMonitor)
		m.EntryQ = append(m.EntryQ, id)
	}
	m.WaitQ = m.WaitQ[:0]
	return n, nil
}

// Sleep parks t until wakeAt.
func (s *Scheduler) Sleep(t *Thread, wakeAt int64) {
	s.setState(t, Sleeping)
	t.WakeAt = wakeAt
	s.addTimer(wakeAt, t.ID)
	s.current = -1
}

// Interrupt wakes a waiting, timed-waiting, or sleeping thread with its
// interrupted flag set. Waiting threads must still reacquire the monitor.
func (s *Scheduler) Interrupt(target *Thread) {
	switch target.State {
	case Waiting, TimedWaiting:
		target.Interrupted = true
		s.cancelTimer(target.ID)
		m := s.monitors[target.WaitingOn]
		removeID(&m.WaitQ, target.ID)
		s.setState(target, BlockedMonitor)
		m.EntryQ = append(m.EntryQ, target.ID)
		s.grantIfFree(target.WaitingOn, m)
	case Sleeping:
		target.Interrupted = true
		s.cancelTimer(target.ID)
		s.Enqueue(target)
	default:
		target.Interrupted = true
	}
}

// --- Timer queue (non-deterministic timed events, §2.2) ---

func (s *Scheduler) addTimer(wakeAt int64, tid int) {
	s.timerSeq++
	e := timerEntry{WakeAt: wakeAt, Seq: s.timerSeq, TID: tid}
	i := sort.Search(len(s.timers), func(i int) bool {
		ti := s.timers[i]
		return ti.WakeAt > e.WakeAt || (ti.WakeAt == e.WakeAt && ti.Seq > e.Seq)
	})
	s.timers = append(s.timers, timerEntry{})
	copy(s.timers[i+1:], s.timers[i:])
	s.timers[i] = e
}

func (s *Scheduler) cancelTimer(tid int) {
	for i, e := range s.timers {
		if e.TID == tid {
			s.timers = append(s.timers[:i], s.timers[i+1:]...)
			return
		}
	}
}

// NextWake returns the earliest timer deadline.
func (s *Scheduler) NextWake() (int64, bool) {
	if len(s.timers) == 0 {
		return 0, false
	}
	return s.timers[0].WakeAt, true
}

// ExpireTimers wakes every thread whose deadline has passed at now. The
// clock value itself comes from the DejaVu engine (recorded or replayed),
// so expiry is deterministic given the replayed clock values (§2.2).
func (s *Scheduler) ExpireTimers(now int64) (woken int) {
	for len(s.timers) > 0 && s.timers[0].WakeAt <= now {
		e := s.timers[0]
		s.timers = s.timers[1:]
		t := s.threads[e.TID]
		switch t.State {
		case Sleeping:
			s.Enqueue(t)
			woken++
		case TimedWaiting:
			m := s.monitors[t.WaitingOn]
			removeID(&m.WaitQ, t.ID)
			s.setState(t, BlockedMonitor)
			m.EntryQ = append(m.EntryQ, t.ID)
			s.grantIfFree(t.WaitingOn, m)
			woken++
		}
	}
	return woken
}

// CheckDeadlock returns ErrDeadlock when nothing can ever run again while
// live threads remain.
func (s *Scheduler) CheckDeadlock() error {
	if len(s.readyQ) == 0 && s.current == -1 && len(s.timers) == 0 && s.LiveCount() > 0 {
		return ErrDeadlock
	}
	return nil
}

func removeID(q *[]int, id int) {
	for i, v := range *q {
		if v == id {
			*q = append((*q)[:i], (*q)[i+1:]...)
			return
		}
	}
}

// VisitRoots presents every heap reference owned by the thread package to
// the collector: mirror objects, monitor keys, and wait targets. Stack
// segments are NOT visited here — they are handed to the collector as
// heap.StackRoots (each root slot must be presented exactly once per
// collection). Iteration follows creation order so the copy order — and
// hence every post-GC address — is deterministic.
func (s *Scheduler) VisitRoots(visit heap.RootVisitor) {
	for _, t := range s.threads {
		visit(&t.MirrorObj)
		visit(&t.WaitingOn)
	}
	newMons := make(map[heap.Addr]*Monitor, len(s.monitors))
	for i := range s.monOrder {
		m := s.monitors[s.monOrder[i]]
		visit(&s.monOrder[i])
		newMons[s.monOrder[i]] = m
	}
	s.monitors = newMons
}

// DeadlockReport renders the wait-for relationships when nothing can run:
// which thread owns each contended monitor and who is queued on it. It is
// attached to ErrDeadlock diagnostics so a replayed deadlock (which
// reproduces exactly) explains itself.
func (s *Scheduler) DeadlockReport() string {
	var sb []byte
	add := func(f string, args ...any) { sb = append(sb, fmt.Sprintf(f, args...)...) }
	for _, t := range s.threads {
		switch t.State {
		case BlockedMonitor:
			m := s.monitors[t.WaitingOn]
			owner := -1
			if m != nil {
				owner = m.Owner
			}
			add("thread %d blocked on monitor @%d (owned by thread %d)\n", t.ID, t.WaitingOn, owner)
		case Waiting:
			add("thread %d waiting on monitor @%d (no timeout, nobody to notify)\n", t.ID, t.WaitingOn)
		case TimedWaiting, Sleeping:
			add("thread %d parked until %d\n", t.ID, t.WakeAt)
		}
	}
	if len(sb) == 0 {
		return "no blocked threads"
	}
	return string(sb)
}
