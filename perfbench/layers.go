package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"dejavu/internal/core"
	"dejavu/internal/heap"
	"dejavu/internal/replaycheck"
	"dejavu/internal/threads"
	"dejavu/internal/trace"
	"dejavu/internal/vm"
)

// Layer microbenchmarks: each times a public function of one module in
// isolation and reports the median over repetitions.

const microReps = 7

// perOp times reps batches of n calls of f and returns the median ns per
// call.
func perOp(n int, f func() error) (float64, error) {
	var ns []float64
	for r := 0; r < microReps; r++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := f(); err != nil {
				return 0, err
			}
		}
		ns = append(ns, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(ns), nil
}

// schedulerBench times threads.Scheduler's dispatch, monitor and
// wait/notify paths on a standalone scheduler.
func schedulerBench() (pick, monitor, waitNotify float64, err error) {
	const n = 100_000
	s := threads.NewScheduler()
	for i := 0; i < 4; i++ {
		s.Enqueue(s.NewThread())
	}
	if pick, err = perOp(n, func() error {
		t := s.PickNext()
		if t == nil {
			return errors.New("threads: empty ready queue")
		}
		s.Enqueue(t)
		return nil
	}); err != nil {
		return
	}

	const obj = heap.Addr(64)
	s = threads.NewScheduler()
	a, b := s.NewThread(), s.NewThread()
	if monitor, err = perOp(n, func() error {
		if !s.MonEnter(a, obj) {
			return errors.New("threads: free monitor not acquired")
		}
		return s.MonExit(a, obj)
	}); err != nil {
		return
	}

	// One cycle: a waits, b enters, notifies all and exits, which hands
	// the monitor back to a; a is dispatched and exits.
	waitNotify, err = perOp(n, func() error {
		if !s.MonEnter(a, obj) {
			return errors.New("threads: waiter did not acquire")
		}
		if err := s.Wait(a, obj, -1); err != nil {
			return err
		}
		if !s.MonEnter(b, obj) {
			return errors.New("threads: notifier did not acquire")
		}
		if _, err := s.NotifyAll(b, obj); err != nil {
			return err
		}
		if err := s.MonExit(b, obj); err != nil {
			return err
		}
		if s.PickNext() != a {
			return errors.New("threads: woken waiter not dispatched")
		}
		return s.MonExit(a, obj)
	})
	return
}

// vmLayer is what vmBench measures on one program.
type vmLayer struct {
	gcUS, encodeUSPerKB, restoreUSPerKB, liveFrac float64
}

// vmBench stops p halfway through a recording and times, on that VM,
// VM.GC, Snapshot+Encode, and RestoreBytes into a fresh VM.
func vmBench(p *prog) (vmLayer, error) {
	var l vmLayer
	o := p.opts()
	o.MaxEvents = p.events / 2
	res, err := replaycheck.Record(p.p, o)
	if err != nil {
		return l, err
	}
	if !errors.Is(res.RunErr, vm.ErrEventBudget) {
		return l, fmt.Errorf("%s: stopping mid-run: %v", p.name, res.RunErr)
	}
	mid := res.VM
	var gc, enc, rest []float64
	var data []byte
	for r := 0; r < microReps; r++ {
		t0 := time.Now()
		mid.GC()
		t1 := time.Now()
		snap, err := mid.Snapshot()
		if err != nil {
			return l, err
		}
		data = snap.Encode(p.hash)
		t2 := time.Now()
		fresh, err := newRecordVM(p)
		if err != nil {
			return l, err
		}
		t3 := time.Now()
		if err := fresh.RestoreBytes(data); err != nil {
			return l, err
		}
		t4 := time.Now()
		kb := float64(len(data)) / 1024
		gc = append(gc, float64(t1.Sub(t0).Nanoseconds())/1e3)
		enc = append(enc, float64(t2.Sub(t1).Nanoseconds())/1e3/kb)
		rest = append(rest, float64(t4.Sub(t3).Nanoseconds())/1e3/kb)
	}
	live, _ := mid.Heap().LiveBytes()
	return vmLayer{gcUS: median(gc), encodeUSPerKB: median(enc), restoreUSPerKB: median(rest),
		liveFrac: float64(live) / float64(len(data))}, nil
}

// newRecordVM constructs, without running it, a VM configured as the
// recording VM that took a journal checkpoint.
func newRecordVM(p *prog) (*vm.VM, error) {
	ecfg := core.DefaultConfig(core.ModeRecord)
	ecfg.ProgHash = p.hash
	ecfg.Time = &core.FakeTime{Base: timeBase, Step: timeStep}
	ecfg.Preempt = core.NewSeededPreemptor(p.seed, preemptMin, preemptMax)
	eng, err := core.NewEngine(ecfg)
	if err != nil {
		return nil, err
	}
	return vm.New(p.p, vm.Config{HeapBytes: p.heap, Engine: eng, MaxEvents: maxEvents, IdleSleep: idleSleep})
}

// journalLayer is the read side of one recorded session-sized journal.
type journalLayer struct {
	openMS, seededMS, seededEvents float64
}

// journalBench records p into a journal as a session would, then times
// trace.OpenJournal and seeded replay (ReplayJournalFrom stopped at the
// target) to seed-drawn travel targets.
func journalBench(p *prog, rng *rand.Rand) (journalLayer, error) {
	var l journalLayer
	fs := newMemFS(new(atomic.Int64)) // where session journals are kept
	o := replaycheck.Options{Seed: p.seed, RotateEvents: p.rotate}
	rec, err := replaycheck.RecordJournal(p.p, fs, o)
	if err != nil {
		return l, err
	}
	if rec.RunErr != nil {
		return l, rec.RunErr
	}
	var open []float64
	for r := 0; r < microReps; r++ {
		t0 := time.Now()
		if _, err := trace.OpenJournal(fs); err != nil {
			return l, err
		}
		open = append(open, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	var seeded, events []float64
	for r := 0; r < travelsPerCycle; r++ {
		target := 1 + uint64(rng.Int63n(int64(rec.Events-1)))
		ro := replaycheck.Options{MaxEvents: target}
		t0 := time.Now()
		res, info, err := replaycheck.ReplayJournalFrom(p.p, fs, target, ro)
		d := time.Since(t0)
		if err != nil {
			return l, err
		}
		if res.RunErr != nil && !errors.Is(res.RunErr, vm.ErrEventBudget) {
			return l, res.RunErr
		}
		if res.Events != target {
			return l, fmt.Errorf("%s: seeded replay to %d stopped at %d", p.name, target, res.Events)
		}
		seeded = append(seeded, float64(d.Nanoseconds())/1e6)
		events = append(events, float64(target-info.VMEvents))
	}
	return journalLayer{openMS: median(open), seededMS: median(seeded), seededEvents: mean(events)}, nil
}

// layerBenches runs every microbenchmark and records its per-layer metrics.
func (b *bench) layerBenches(m metrics) error {
	pick, mon, wn, err := schedulerBench()
	if err != nil {
		return fmt.Errorf("scheduler bench: %w", err)
	}
	m.set("threads.picknext_ns", pick)
	m.set("threads.monitor_ns", mon)
	m.set("threads.wait_notify_ns", wn)

	// Collections are timed at the sweep's heaps (hashy's is GC-bound),
	// checkpoints at the sessions' default heap, which is what session
	// journals write.
	var gc, enc, rest, live []float64
	for _, p := range b.sweep {
		l, err := vmBench(p)
		if err != nil {
			return fmt.Errorf("vm bench %s: %w", p.name, err)
		}
		gc = append(gc, l.gcUS)
	}
	for _, p := range b.sessions {
		l, err := vmBench(p)
		if err != nil {
			return fmt.Errorf("vm bench %s: %w", p.name, err)
		}
		enc, rest, live = append(enc, l.encodeUSPerKB), append(rest, l.restoreUSPerKB), append(live, l.liveFrac)
	}
	m.set("heap.gc_us_per_collection", geomean(gc))
	m.set("vm.checkpoint_encode_us_per_kb", geomean(enc))
	m.set("vm.checkpoint_restore_us_per_kb", geomean(rest))
	m.set("vm.checkpoint_live_frac", mean(live))

	rng := rand.New(rand.NewSource(b.seed*104729 + 1))
	var open, seeded, events []float64
	for _, p := range b.sessions {
		l, err := journalBench(p, rng)
		if err != nil {
			return fmt.Errorf("journal bench %s: %w", p.name, err)
		}
		open, seeded, events = append(open, l.openMS), append(seeded, l.seededMS), append(events, l.seededEvents)
	}
	m.set("trace.open_journal_ms", geomean(open))
	m.set("replaycheck.seeded_replay_ms", geomean(seeded))
	m.set("replaycheck.seeded_events_per_travel", mean(events))
	return nil
}
