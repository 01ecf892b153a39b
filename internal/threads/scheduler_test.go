package threads

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"dejavu/internal/heap"
)

func newSched(n int) (*Scheduler, []*Thread) {
	s := NewScheduler()
	var ts []*Thread
	for i := 0; i < n; i++ {
		t := s.NewThread()
		s.Enqueue(t)
		ts = append(ts, t)
	}
	return s, ts
}

func TestFIFODispatch(t *testing.T) {
	s, ts := newSched(3)
	for i := 0; i < 3; i++ {
		got := s.PickNext()
		if got != ts[i] {
			t.Fatalf("dispatch %d: got thread %d", i, got.ID)
		}
		s.Terminate(got)
	}
	if s.PickNext() != nil {
		t.Fatal("expected empty ready queue")
	}
}

func TestMonitorContention(t *testing.T) {
	s, ts := newSched(2)
	obj := heap.Addr(64)
	t0 := s.PickNext()
	if !s.MonEnter(t0, obj) {
		t.Fatal("uncontended enter failed")
	}
	if !s.MonEnter(t0, obj) {
		t.Fatal("recursive enter failed")
	}
	// t1 contends and blocks.
	t1 := s.PickNext()
	if t1 != ts[1] {
		t.Fatalf("picked %d", t1.ID)
	}
	if s.MonEnter(t1, obj) {
		t.Fatal("contended enter should block")
	}
	if t1.State != BlockedMonitor {
		t.Fatalf("t1 state = %v", t1.State)
	}
	// Releasing one recursion level keeps ownership.
	if err := s.MonExit(t0, obj); err != nil {
		t.Fatal(err)
	}
	if s.MonitorState(obj).Owner != t0.ID {
		t.Fatal("ownership lost after partial exit")
	}
	// Full release hands the monitor to t1.
	if err := s.MonExit(t0, obj); err != nil {
		t.Fatal(err)
	}
	m := s.MonitorState(obj)
	if m.Owner != t1.ID || t1.State != Ready {
		t.Fatalf("owner=%d state=%v", m.Owner, t1.State)
	}
}

func TestMonExitNotOwnerFails(t *testing.T) {
	s, ts := newSched(2)
	obj := heap.Addr(64)
	t0 := s.PickNext()
	s.MonEnter(t0, obj)
	if err := s.MonExit(ts[1], obj); err == nil {
		t.Fatal("expected not-owner error")
	}
	if err := s.MonExit(ts[1], heap.Addr(128)); err == nil {
		t.Fatal("expected unknown-monitor error")
	}
}

func TestWaitNotify(t *testing.T) {
	s, ts := newSched(2)
	obj := heap.Addr(64)
	t0 := s.PickNext()
	s.MonEnter(t0, obj)
	s.MonEnter(t0, obj) // recursion 2
	if err := s.Wait(t0, obj, -1); err != nil {
		t.Fatal(err)
	}
	if t0.State != Waiting || t0.SavedRecursion != 2 {
		t.Fatalf("state=%v savedRec=%d", t0.State, t0.SavedRecursion)
	}
	// Monitor is free now; t1 can acquire and notify.
	t1 := s.PickNext()
	if t1 != ts[1] {
		t.Fatalf("picked %d", t1.ID)
	}
	if !s.MonEnter(t1, obj) {
		t.Fatal("monitor should be free during wait")
	}
	id, err := s.Notify(t1, obj)
	if err != nil || id != t0.ID {
		t.Fatalf("notify -> %d, %v", id, err)
	}
	if t0.State != BlockedMonitor {
		t.Fatalf("notified thread state = %v (must reacquire)", t0.State)
	}
	// When t1 exits, t0 reacquires with its saved recursion.
	s.MonExit(t1, obj)
	m := s.MonitorState(obj)
	if m.Owner != t0.ID || m.Recursion != 2 {
		t.Fatalf("owner=%d recursion=%d", m.Owner, m.Recursion)
	}
	if t0.State != Ready {
		t.Fatalf("t0 state = %v", t0.State)
	}
}

func TestNotifyNoWaiter(t *testing.T) {
	s, _ := newSched(1)
	obj := heap.Addr(64)
	t0 := s.PickNext()
	s.MonEnter(t0, obj)
	id, err := s.Notify(t0, obj)
	if err != nil || id != -1 {
		t.Fatalf("got %d, %v", id, err)
	}
}

func TestNotifyAllFIFOOrder(t *testing.T) {
	s, ts := newSched(4)
	obj := heap.Addr(64)
	// Threads 0..2 wait in order; thread 3 notifies all.
	for i := 0; i < 3; i++ {
		ti := s.PickNext()
		s.MonEnter(ti, obj)
		s.Wait(ti, obj, -1)
	}
	t3 := s.PickNext()
	s.MonEnter(t3, obj)
	n, err := s.NotifyAll(t3, obj)
	if err != nil || n != 3 {
		t.Fatalf("notifyAll -> %d, %v", n, err)
	}
	s.MonExit(t3, obj)
	// Wakeups re-acquire in original wait order as the monitor is released.
	order := []int{}
	for i := 0; i < 3; i++ {
		w := s.PickNext()
		order = append(order, w.ID)
		s.MonExit(w, obj)
		s.Terminate(w)
	}
	if !reflect.DeepEqual(order, []int{ts[0].ID, ts[1].ID, ts[2].ID}) {
		t.Fatalf("wake order = %v", order)
	}
}

func TestSleepAndTimers(t *testing.T) {
	s, ts := newSched(2)
	t0 := s.PickNext()
	s.Sleep(t0, 100)
	t1 := s.PickNext()
	s.Sleep(t1, 50)
	if wake, ok := s.NextWake(); !ok || wake != 50 {
		t.Fatalf("next wake = %d, %v", wake, ok)
	}
	if n := s.ExpireTimers(49); n != 0 {
		t.Fatalf("woke %d early", n)
	}
	if n := s.ExpireTimers(50); n != 1 {
		t.Fatalf("woke %d, want 1", n)
	}
	if next := s.PickNext(); next != ts[1] {
		t.Fatalf("woke wrong thread %d", next.ID)
	}
	if n := s.ExpireTimers(1000); n != 1 {
		t.Fatalf("woke %d, want 1", n)
	}
}

func TestTimerTieBreakIsFIFO(t *testing.T) {
	s, ts := newSched(3)
	for i := 0; i < 3; i++ {
		ti := s.PickNext()
		s.Sleep(ti, 10) // identical deadlines
	}
	s.ExpireTimers(10)
	for i := 0; i < 3; i++ {
		got := s.PickNext()
		if got != ts[i] {
			t.Fatalf("wake %d: got thread %d", i, got.ID)
		}
		s.Terminate(got)
	}
}

func TestTimedWaitExpiry(t *testing.T) {
	s, ts := newSched(2)
	obj := heap.Addr(64)
	t0 := s.PickNext()
	s.MonEnter(t0, obj)
	s.Wait(t0, obj, 200)
	if t0.State != TimedWaiting {
		t.Fatalf("state = %v", t0.State)
	}
	// Timeout fires while monitor is free: t0 reacquires immediately.
	s.ExpireTimers(200)
	if t0.State != Ready {
		t.Fatalf("state after expiry = %v", t0.State)
	}
	if m := s.MonitorState(obj); m.Owner != t0.ID {
		t.Fatalf("owner = %d", m.Owner)
	}
	_ = ts
}

func TestTimedWaitExpiryContended(t *testing.T) {
	s, _ := newSched(2)
	obj := heap.Addr(64)
	t0 := s.PickNext()
	s.MonEnter(t0, obj)
	s.Wait(t0, obj, 200)
	t1 := s.PickNext()
	s.MonEnter(t1, obj)
	// Timeout fires while t1 holds the monitor: t0 joins the entry queue.
	s.ExpireTimers(200)
	if t0.State != BlockedMonitor {
		t.Fatalf("state = %v", t0.State)
	}
	s.MonExit(t1, obj)
	if m := s.MonitorState(obj); m.Owner != t0.ID {
		t.Fatalf("owner = %d", m.Owner)
	}
}

func TestNotifyCancelsTimer(t *testing.T) {
	s, _ := newSched(2)
	obj := heap.Addr(64)
	t0 := s.PickNext()
	s.MonEnter(t0, obj)
	s.Wait(t0, obj, 500)
	t1 := s.PickNext()
	s.MonEnter(t1, obj)
	s.Notify(t1, obj)
	s.MonExit(t1, obj)
	if _, ok := s.NextWake(); ok {
		t.Fatal("timer should have been cancelled by notify")
	}
	// Expiring past the old deadline must not double-wake.
	if n := s.ExpireTimers(10000); n != 0 {
		t.Fatalf("phantom wake: %d", n)
	}
}

func TestInterruptWaiting(t *testing.T) {
	s, _ := newSched(2)
	obj := heap.Addr(64)
	t0 := s.PickNext()
	s.MonEnter(t0, obj)
	s.Wait(t0, obj, -1)
	s.Interrupt(t0)
	if !t0.Interrupted {
		t.Fatal("interrupted flag not set")
	}
	// Monitor free: t0 reacquires directly.
	if t0.State != Ready {
		t.Fatalf("state = %v", t0.State)
	}
}

func TestInterruptSleeping(t *testing.T) {
	s, _ := newSched(1)
	t0 := s.PickNext()
	s.Sleep(t0, 1000)
	s.Interrupt(t0)
	if t0.State != Ready || !t0.Interrupted {
		t.Fatalf("state=%v interrupted=%v", t0.State, t0.Interrupted)
	}
	if _, ok := s.NextWake(); ok {
		t.Fatal("timer not cancelled")
	}
}

func TestDeadlockDetection(t *testing.T) {
	s, ts := newSched(2)
	a, b := heap.Addr(64), heap.Addr(128)
	t0 := s.PickNext()
	s.MonEnter(t0, a)
	s.Preempt(t0)
	t1 := s.PickNext()
	s.MonEnter(t1, b)
	s.MonEnter(t1, a) // blocks
	t0b := s.PickNext()
	if t0b != ts[0] {
		t.Fatalf("picked %d", t0b.ID)
	}
	s.MonEnter(t0b, b) // blocks: classic deadlock
	if s.PickNext() != nil {
		t.Fatal("no thread should be runnable")
	}
	if err := s.CheckDeadlock(); err == nil {
		t.Fatal("deadlock not detected")
	}
}

func TestMonitorTableBounded(t *testing.T) {
	s, _ := newSched(1)
	t0 := s.PickNext()
	for i := 1; i <= 1000; i++ {
		obj := heap.Addr(i * 64)
		s.MonEnter(t0, obj)
		s.MonExit(t0, obj)
	}
	if n := s.NumMonitors(); n != 0 {
		t.Fatalf("idle monitors retained: %d", n)
	}
}

func TestVisitRootsUpdatesMonitorKeys(t *testing.T) {
	s, _ := newSched(2)
	obj := heap.Addr(64)
	t0 := s.PickNext()
	s.MonEnter(t0, obj)
	t0.MirrorObj = 16
	// Simulate a GC that moves everything by +1024. (Stack segments are
	// presented separately as heap.StackRoots, not via VisitRoots.)
	s.VisitRoots(func(slot *heap.Addr) {
		if *slot != 0 {
			*slot += 1024
		}
	})
	if t0.MirrorObj != 16+1024 {
		t.Fatal("thread refs not updated")
	}
	if m := s.MonitorState(heap.Addr(64 + 1024)); m == nil || m.Owner != t0.ID {
		t.Fatal("monitor not rekeyed after GC")
	}
	if err := s.MonExit(t0, heap.Addr(64+1024)); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	s, _ := newSched(3)
	obj := heap.Addr(64)
	t0 := s.PickNext()
	s.MonEnter(t0, obj)
	s.Wait(t0, obj, 500)
	t1 := s.PickNext()
	s.MonEnter(t1, obj)
	snap := s.Snapshot()

	// Mutate heavily.
	s.Notify(t1, obj)
	s.MonExit(t1, obj)
	s.Terminate(t1)
	s.PickNext()

	s.Restore(snap)
	t0r, _ := s.Thread(0)
	t1r, _ := s.Thread(1)
	if t0r.State != TimedWaiting || t1r.State != Running {
		t.Fatalf("states after restore: %v %v", t0r.State, t1r.State)
	}
	if m := s.MonitorState(obj); m == nil || m.Owner != t1r.ID || len(m.WaitQ) != 1 {
		t.Fatal("monitor state not restored")
	}
	if wake, ok := s.NextWake(); !ok || wake != 500 {
		t.Fatal("timers not restored")
	}
	// The restored scheduler must be fully independent of post-snapshot
	// aliasing: operating on it must not corrupt the snapshot.
	s.Notify(t1r, obj)
	s.Restore(snap)
	if m := s.MonitorState(obj); len(m.WaitQ) != 1 {
		t.Fatal("snapshot aliased by restored scheduler")
	}
}

func TestStateString(t *testing.T) {
	if Ready.String() != "ready" || Terminated.String() != "terminated" {
		t.Fatal("state names wrong")
	}
}

// TestSchedulerInvariantProperty drives the scheduler with random (but
// legal) operation sequences and checks the structural invariant after
// every step: each live thread is in exactly one place — running, in the
// ready queue, in exactly one monitor's entry or wait queue, or parked on
// a timer.
func TestSchedulerInvariantProperty(t *testing.T) {
	check := func(s *Scheduler, objs []heap.Addr) error {
		locations := map[int][]string{}
		if c := s.Current(); c != nil {
			locations[c.ID] = append(locations[c.ID], "running")
			if c.State != Running {
				return fmt.Errorf("current thread %d has state %v", c.ID, c.State)
			}
		}
		seenReady := map[int]bool{}
		for _, t := range s.Threads() {
			if t.State == Ready {
				seenReady[t.ID] = true
			}
		}
		// Ready queue entries must be Ready-state threads, no duplicates.
		readyCount := map[int]int{}
		for _, t := range s.Threads() {
			_ = t
		}
		for _, obj := range objs {
			m := s.MonitorState(obj)
			if m == nil {
				continue
			}
			for _, id := range m.EntryQ {
				th, _ := s.Thread(id)
				if th.State != BlockedMonitor {
					return fmt.Errorf("entryQ thread %d state %v", id, th.State)
				}
				locations[id] = append(locations[id], "entryQ")
			}
			for _, id := range m.WaitQ {
				th, _ := s.Thread(id)
				if th.State != Waiting && th.State != TimedWaiting {
					return fmt.Errorf("waitQ thread %d state %v", id, th.State)
				}
				locations[id] = append(locations[id], "waitQ")
			}
			if m.Owner != -1 {
				th, _ := s.Thread(m.Owner)
				if th.State == Terminated {
					return fmt.Errorf("monitor owned by terminated thread %d", m.Owner)
				}
			}
		}
		for id, locs := range locations {
			if len(locs) > 1 {
				return fmt.Errorf("thread %d in multiple places: %v", id, locs)
			}
		}
		_ = readyCount
		_ = seenReady
		return nil
	}

	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewScheduler()
		objs := []heap.Addr{64, 128, 192}
		for i := 0; i < 4; i++ {
			s.Enqueue(s.NewThread())
		}
		now := int64(0)
		held := map[int][]heap.Addr{} // thread -> monitors it owns (stack)
		for step := 0; step < 400; step++ {
			cur := s.Current()
			if cur == nil {
				now += int64(rng.Intn(50))
				s.ExpireTimers(now)
				cur = s.PickNext()
				if cur == nil {
					if s.CheckDeadlock() != nil {
						return true // detected: acceptable terminal state
					}
					if _, ok := s.NextWake(); !ok {
						break
					}
					continue
				}
			}
			switch rng.Intn(8) {
			case 0: // monenter a random object
				obj := objs[rng.Intn(len(objs))]
				if s.MonEnter(cur, obj) {
					held[cur.ID] = append(held[cur.ID], obj)
				}
			case 1: // monexit the most recent
				if hs := held[cur.ID]; len(hs) > 0 {
					obj := hs[len(hs)-1]
					if err := s.MonExit(cur, obj); err != nil {
						t.Log(err)
						return false
					}
					held[cur.ID] = hs[:len(hs)-1]
				}
			case 2: // wait on an owned monitor (fully releases it!)
				if hs := held[cur.ID]; len(hs) > 0 {
					obj := hs[len(hs)-1]
					if err := s.Wait(cur, obj, -1); err != nil {
						t.Log(err)
						return false
					}
					held[cur.ID] = nil // wait releases all recursion on obj
					// (we only track one object deep here: drop all for simplicity)
				}
			case 3: // timed wait
				if hs := held[cur.ID]; len(hs) > 0 {
					obj := hs[len(hs)-1]
					if err := s.Wait(cur, obj, now+int64(rng.Intn(30))); err != nil {
						t.Log(err)
						return false
					}
					held[cur.ID] = nil
				}
			case 4: // notify
				if hs := held[cur.ID]; len(hs) > 0 {
					if _, err := s.Notify(cur, hs[len(hs)-1]); err != nil {
						t.Log(err)
						return false
					}
				}
			case 5: // sleep (only when holding nothing, to avoid deadlock noise)
				if len(held[cur.ID]) == 0 {
					s.Sleep(cur, now+int64(rng.Intn(40)))
				}
			case 6: // preempt
				s.Preempt(cur)
			case 7: // interrupt a random thread
				ts := s.Threads()
				s.Interrupt(ts[rng.Intn(len(ts))])
			}
			if err := check(s, objs); err != nil {
				t.Logf("seed %d step %d: %v", seed, step, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockReport(t *testing.T) {
	s, _ := newSched(2)
	a, b := heap.Addr(64), heap.Addr(128)
	t0 := s.PickNext()
	s.MonEnter(t0, a)
	s.Preempt(t0)
	t1 := s.PickNext()
	s.MonEnter(t1, b)
	s.MonEnter(t1, a)
	t0b := s.PickNext()
	s.MonEnter(t0b, b)
	rep := s.DeadlockReport()
	if !strings.Contains(rep, "thread 0 blocked on monitor @128 (owned by thread 1)") ||
		!strings.Contains(rep, "thread 1 blocked on monitor @64 (owned by thread 0)") {
		t.Fatalf("report:\n%s", rep)
	}
	// A healthy scheduler reports nothing.
	s2, _ := newSched(1)
	s2.PickNext()
	if s2.DeadlockReport() != "no blocked threads" {
		t.Fatal("unexpected blocked threads")
	}
}

func TestSnapshotCodecRoundTrip(t *testing.T) {
	s, _ := newSched(3)
	obj := heap.Addr(64)
	t0 := s.PickNext()
	s.MonEnter(t0, obj)
	s.Wait(t0, obj, 500)
	t1 := s.PickNext()
	s.MonEnter(t1, obj)
	t1.Tags = []bool{true, false, true}
	t1.SP = 3
	snap := s.Snapshot()
	var buf []byte
	snap.EncodeTo(&buf)
	dec, rest, err := DecodeSnapshot(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}
	// Thread.Tags is carried in Snapshot.Tags, not inside the Thread
	// structs; blank it for the struct comparison.
	a := append([]Thread(nil), snap.Threads...)
	bThreads := append([]Thread(nil), dec.Threads...)
	for i := range a {
		a[i].Tags = nil
		bThreads[i].Tags = nil
	}
	if !reflect.DeepEqual(a, bThreads) {
		t.Fatalf("threads differ:\n%+v\n%+v", a, bThreads)
	}
	if !reflect.DeepEqual(snap.Tags, dec.Tags) || !reflect.DeepEqual(snap.ReadyQ, dec.ReadyQ) ||
		snap.Current != dec.Current || !reflect.DeepEqual(snap.Mons, dec.Mons) ||
		!reflect.DeepEqual(snap.MonAddrs, dec.MonAddrs) || !reflect.DeepEqual(snap.Timers, dec.Timers) ||
		snap.TimerSeq != dec.TimerSeq {
		t.Fatal("snapshot fields differ after codec round trip")
	}
	// Restoring the decoded snapshot yields a working scheduler.
	s2 := NewScheduler()
	for i := 0; i < 3; i++ {
		s2.NewThread()
	}
	s2.Restore(dec)
	if m := s2.MonitorState(obj); m == nil || m.Owner != 1 || len(m.WaitQ) != 1 {
		t.Fatal("restored monitor state wrong")
	}
	// Corruption never panics.
	for i := 0; i < len(buf); i += 7 {
		mut := append([]byte(nil), buf...)
		mut[i] ^= 0x3c
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("decode panicked at byte %d: %v", i, r)
				}
			}()
			_, _, _ = DecodeSnapshot(mut)
		}()
	}
}

// TestChangeListReportsStateWrites: every scheduler transition lists
// exactly the threads whose State it wrote, each once, and a take empties
// the list. A new scheduler and Restore list every thread.
func TestChangeListReportsStateWrites(t *testing.T) {
	s, _ := newSched(4)
	expect := func(what string, want ...int) {
		t.Helper()
		got := append([]int{}, s.TakeChanged()...)
		if want == nil {
			want = []int{}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: changed %v, want %v", what, got, want)
		}
		if again := s.TakeChanged(); len(again) != 0 {
			t.Fatalf("%s: second take reports %v", what, again)
		}
	}
	expect("new scheduler", 0, 1, 2, 3)
	a, b := heap.Addr(64), heap.Addr(96)

	t0 := s.PickNext()
	expect("PickNext", 0)
	if !s.MonEnter(t0, a) {
		t.Fatal("uncontended enter blocked")
	}
	expect("uncontended MonEnter")
	s.Preempt(t0)
	expect("Preempt", 0)

	t1 := s.PickNext()
	expect("PickNext", 1)
	if s.MonEnter(t1, a) {
		t.Fatal("contended enter acquired")
	}
	expect("contended MonEnter", 1)

	t2 := s.PickNext()
	expect("PickNext", 2)
	s.MonEnter(t2, b)
	if err := s.Wait(t2, b, -1); err != nil {
		t.Fatal(err)
	}
	expect("Wait", 2)

	t3 := s.PickNext()
	expect("PickNext", 3)
	s.Sleep(t3, 50)
	expect("Sleep", 3)

	t0 = s.PickNext()
	expect("PickNext", 0)
	if err := s.MonExit(t0, a); err != nil {
		t.Fatal(err)
	}
	expect("MonExit granting the entry queue", 1)
	s.MonEnter(t0, b)
	expect("uncontended MonEnter")
	if id, _ := s.Notify(t0, b); id != 2 {
		t.Fatalf("Notify woke %d", id)
	}
	expect("Notify", 2)
	if id, _ := s.Notify(t0, b); id != -1 {
		t.Fatalf("Notify of an empty wait set woke %d", id)
	}
	expect("Notify of an empty wait set")
	if err := s.MonExit(t0, b); err != nil {
		t.Fatal(err)
	}
	expect("MonExit granting a notified waiter", 2)

	s.Interrupt(t3)
	expect("Interrupt of a sleeper", 3)
	s.Interrupt(t0)
	expect("Interrupt of a running thread")
	s.Terminate(t0)
	expect("Terminate", 0)

	// Timed waits, NotifyAll and expiry, on a fresh scheduler: thread 0
	// waits with a timeout and thread 1 without; thread 2 wakes both, then
	// waits itself, granting the monitor to thread 0, and its timer
	// expires while thread 0 owns the monitor.
	s, _ = newSched(3)
	s.TakeChanged()
	c := heap.Addr(128)
	t0 = s.PickNext()
	s.MonEnter(t0, c)
	s.TakeChanged()
	if err := s.Wait(t0, c, 100); err != nil {
		t.Fatal(err)
	}
	expect("timed Wait", 0)
	t1 = s.PickNext()
	s.MonEnter(t1, c)
	s.TakeChanged()
	if err := s.Wait(t1, c, -1); err != nil {
		t.Fatal(err)
	}
	expect("Wait", 1)
	t2 = s.PickNext()
	s.MonEnter(t2, c)
	s.TakeChanged()
	if n, _ := s.NotifyAll(t2, c); n != 2 {
		t.Fatalf("NotifyAll woke %d", n)
	}
	expect("NotifyAll", 0, 1)
	if err := s.Wait(t2, c, 40); err != nil {
		t.Fatal(err)
	}
	expect("timed Wait granting the entry queue", 2, 0)
	if s.ExpireTimers(39) != 0 {
		t.Fatal("timer fired early")
	}
	expect("ExpireTimers before the deadline")
	if s.ExpireTimers(40) != 1 {
		t.Fatal("timed wait did not expire")
	}
	expect("timed Wait expiry behind an owned monitor", 2)
	if t2.State != BlockedMonitor {
		t.Fatalf("expired waiter is %v, want blocked", t2.State)
	}

	snap := s.Snapshot()
	s.PickNext()
	s.TakeChanged()
	s.Restore(snap)
	expect("Restore", 0, 1, 2)
}
