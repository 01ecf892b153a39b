package threads

import "dejavu/internal/heap"

// Monitor is the lock plus wait set attached to a heap object on first
// synchronization. Queues are strict FIFOs so every scheduling decision is
// deterministic.
type Monitor struct {
	Owner     int // thread ID, or -1 when free
	Recursion int
	EntryQ    []int // threads blocked in monitorenter
	WaitQ     []int // threads in wait or timed wait
}

func newMonitor() *Monitor { return &Monitor{Owner: -1} }

// idle reports whether the monitor carries no state and may be discarded.
func (m *Monitor) idle() bool {
	return m.Owner == -1 && len(m.EntryQ) == 0 && len(m.WaitQ) == 0
}

// monitorFor returns the monitor for obj, creating it if needed. Retired
// monitors are reused from a free list: an uncontended enter/exit pair
// would otherwise allocate a fresh Monitor on every acquisition (dropIfIdle
// discards the old one), which shows up as a per-sync-event Go allocation.
func (s *Scheduler) monitorFor(obj heap.Addr) *Monitor {
	if m, ok := s.monitors[obj]; ok {
		return m
	}
	var m *Monitor
	if n := len(s.monPool); n > 0 {
		m = s.monPool[n-1]
		s.monPool = s.monPool[:n-1]
	} else {
		m = newMonitor()
	}
	s.monitors[obj] = m
	s.monOrder = append(s.monOrder, obj)
	return m
}

// dropIfIdle removes the bookkeeping for obj's monitor m once it is idle,
// to keep the monitor table bounded. The removal condition is
// deterministic. The monitor itself goes to the free list with its queue
// capacity intact. monOrder holds each address once, and the monitor
// just released is usually among the newest, so the scan starts there.
func (s *Scheduler) dropIfIdle(obj heap.Addr, m *Monitor) {
	if !m.idle() {
		return
	}
	delete(s.monitors, obj)
	for i := len(s.monOrder) - 1; i >= 0; i-- {
		if s.monOrder[i] == obj {
			s.monOrder = append(s.monOrder[:i], s.monOrder[i+1:]...)
			break
		}
	}
	m.Owner = -1
	m.Recursion = 0
	m.EntryQ = m.EntryQ[:0]
	m.WaitQ = m.WaitQ[:0]
	s.monPool = append(s.monPool, m)
}

// MonitorState returns a copy of the monitor for obj (for the debugger's
// thread viewer), or nil if none exists.
func (s *Scheduler) MonitorState(obj heap.Addr) *Monitor {
	m, ok := s.monitors[obj]
	if !ok {
		return nil
	}
	cp := *m
	cp.EntryQ = append([]int(nil), m.EntryQ...)
	cp.WaitQ = append([]int(nil), m.WaitQ...)
	return &cp
}

// NumMonitors reports how many objects currently carry monitor state.
func (s *Scheduler) NumMonitors() int { return len(s.monitors) }
