package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"dejavu/internal/bytecode"
	"dejavu/internal/core"
	"dejavu/internal/flightrec"
	"dejavu/internal/obs"
	"dejavu/internal/replaycheck"
	"dejavu/internal/vm"
)

type mode int

const (
	modeOff mode = iota
	modeRecord
	modeReplay
	modeFile
	modeJournal
	modeFlight
	// The last two run in traced invocations only; they exist to split
	// the end-to-end modes into layer increments.
	modeOffBare // off without the digest observer
	modeDiscard // RecordTo(io.Discard): trace encoding without a file
	numModes
)

const numE2EModes = modeOffBare

// Roughly how many segments, and so checkpoints, a journal recording is
// rotated into: session journals get tens of checkpoints for travel to
// seed from; sweep journals only a few, so journal_mevs weighs the
// journal's per-event path rather than checkpoint copies.
const (
	sessionSegments = 10
	sweepSegments   = 3
)

var modeNames = [numModes]string{"off", "record", "replay", "file_record", "journal", "flight", "off_bare", "discard"}

// Defaults replaycheck applies to every run; the off modes are composed
// here from core and vm directly and must match them to share schedules.
const (
	preemptMin = 5
	preemptMax = 60
	timeBase   = 1_000_000
	timeStep   = 3
	maxEvents  = 50_000_000
	// idleSleep is the host pause while every VM thread sleeps: none.
	// FakeTime advances at each clock read, so a pause would only add the
	// host's timer latency, which varies from run to run, to server's time.
	idleSleep = -1
)

// prog is a spec made ready to run: built, seeded and calibrated.
type prog struct {
	spec
	p      *bytecode.Program
	hash   uint64
	seed   int64  // preemption seed, derived from the workload seed
	image  string // program image path (session programs)
	rotate int    // journal rotation threshold: logged trace entries per segment

	// Calibration: one untimed record and off run at the program's seed.
	events    uint64
	digest    uint64 // every recording mode must reproduce it
	offDigest uint64 // both off modes must reproduce it
	output    []byte
	offEvents uint64
	offOutput []byte
	trace     []byte // the in-memory trace replay runs against
}

func (p *prog) opts() replaycheck.Options {
	return replaycheck.Options{Seed: p.seed, HeapBytes: p.heap,
		TweakVM: func(c *vm.Config) { c.IdleSleep = idleSleep }}
}

// sample is one mode run of one program.
type sample struct {
	wall       time.Duration // the public call(s), vm.New included
	run        time.Duration // VM.Run alone (off modes)
	newVM      time.Duration // vm.New alone (off modes)
	events     uint64
	digest     uint64
	hasDigest  bool
	output     []byte
	traceBytes int // record mode: in-memory trace length
	stats      core.Stats
	gcs        int
	mallocs    uint64 // traced record runs: Go allocations during the call
	flightRot  int64  // traced flight runs: ring rotations
	fsyncs     int64  // traced journal runs
}

// rescale converts the sample's times to reference speed, given the
// reference loops run before and after it.
func (s *sample) rescale(before, after time.Duration) {
	s.wall, s.run, s.newVM = scale(s.wall, before, after), scale(s.run, before, after), scale(s.newVM, before, after)
}

// hooks times the phases of one replaycheck call from the options' tweak
// callbacks, which run just before core.NewEngine and vm.New.
type hooks struct{ eng, vm time.Time }

func (h *hooks) install(o *replaycheck.Options) {
	o.TweakEngine = func(*core.Config) { h.eng = time.Now() }
	tweak := o.TweakVM
	o.TweakVM = func(c *vm.Config) {
		h.vm = time.Now()
		tweak(c)
	}
}

// spans records a replaycheck call as a span with children: the sink
// construction before the engine (named pre, if any), core.NewEngine,
// vm.New and VM.Run. run is the Result's RunTime.
func (h *hooks) spans(tr *tracer, parent, req int, call, pre string, start, end time.Time, run time.Duration) {
	if tr == nil {
		return
	}
	id := tr.add(call, parent, req, start, end)
	if h.eng.IsZero() || h.vm.IsZero() {
		return
	}
	if pre != "" {
		tr.add(pre, id, req, start, h.eng)
	}
	runStart := end.Add(-run)
	if runStart.Before(h.vm) {
		runStart = h.vm
	}
	tr.add("core.NewEngine", id, req, h.eng, h.vm)
	tr.add("vm.New", id, req, h.vm, runStart)
	tr.add("vm.Run", id, req, runStart, end)
}

// runMode runs p once in mode m. tr is nil for untraced runs; traced runs
// also record spans and read the program counts.
func (b *bench) runMode(p *prog, m mode, tr *tracer) (sample, error) {
	runtime.GC() // the previous run's garbage is not this run's cost
	req := tr.request()
	root := tr.reserve("perfbench."+modeNames[m], 0, req, time.Now())
	defer func() { tr.finish(root, time.Now()) }()

	if m == modeOff || m == modeOffBare {
		return b.runOff(p, m == modeOff, tr, root, req)
	}
	o := p.opts()
	var h hooks
	if tr != nil {
		h.install(&o)
	}
	var (
		res              *replaycheck.Result
		err              error
		s                sample
		start, end       time.Time // what the user pays for
		callStart        time.Time // the replaycheck call alone
		call, pre        string
		reg              *obs.Registry
		before, after    runtime.MemStats
		callErr, doneErr error
	)
	if tr != nil {
		reg = obs.NewRegistry()
	}
	switch m {
	case modeRecord:
		call = "replaycheck.Record"
		if tr != nil {
			runtime.ReadMemStats(&before)
		}
		start = time.Now()
		res, err = replaycheck.Record(p.p, o)
		end = time.Now()
		if tr != nil {
			runtime.ReadMemStats(&after)
			s.mallocs = after.Mallocs - before.Mallocs
		}
		if res != nil {
			s.traceBytes = len(res.Trace)
		}
	case modeReplay:
		call = "replaycheck.Replay"
		start = time.Now()
		res, err = replaycheck.Replay(p.p, p.trace, o)
		end = time.Now()
	case modeDiscard:
		call, pre = "replaycheck.RecordTo", "trace.NewStreamWriter"
		start = time.Now()
		res, err = replaycheck.RecordTo(p.p, io.Discard, o)
		end = time.Now()
	case modeFile:
		call, pre = "replaycheck.RecordTo", "trace.NewStreamWriter"
		path := filepath.Join(b.scratch, p.name+".dvt")
		start = time.Now()
		var f *os.File
		if f, callErr = os.Create(path); callErr == nil {
			callStart = time.Now()
			res, err = replaycheck.RecordTo(p.p, f, o)
			doneErr = f.Close()
		}
		end = time.Now()
		os.Remove(path)
	case modeJournal:
		call, pre = "replaycheck.RecordJournal", "trace.NewSegmentWriter"
		o.RotateEvents = p.rotate
		start = time.Now()
		journal := newMemFS(new(atomic.Int64))
		res, err = replaycheck.RecordJournal(p.p, journal, o)
		end = time.Now()
		s.fsyncs = journal.fsyncs.Load()
	case modeFlight:
		call = "replaycheck.RecordSink"
		start = time.Now()
		var ring *flightrec.Ring
		ring, callErr = flightrec.NewRing(vm.ProgramHash(p.p), flightrec.Options{Obs: reg})
		callStart = time.Now()
		if callErr == nil {
			res, err = replaycheck.RecordSink(p.p, ring, o)
		}
		end = time.Now()
		tr.add("flightrec.NewRing", root, req, start, callStart)
		if reg != nil {
			s.flightRot = seriesValue(reg, "dv_flight_evictions_total") +
				seriesValue(reg, "dv_flight_window_segments") - 1
		}
	default:
		return s, fmt.Errorf("unknown mode %d", m)
	}
	if callErr != nil {
		return s, fmt.Errorf("%s %s: %w", p.name, modeNames[m], callErr)
	}
	if err != nil {
		return s, fmt.Errorf("%s %s: %w", p.name, modeNames[m], err)
	}
	if res.RunErr != nil {
		return s, fmt.Errorf("%s %s: run: %w", p.name, modeNames[m], res.RunErr)
	}
	if doneErr != nil {
		return s, fmt.Errorf("%s %s: close: %w", p.name, modeNames[m], doneErr)
	}
	if callStart.IsZero() {
		callStart = start
	}
	h.spans(tr, root, req, call, pre, callStart, end, res.RunTime)
	s.wall = end.Sub(start)
	s.events = res.Events
	s.digest, s.hasDigest = res.Digest.Sum(), true
	s.output = res.Output
	s.stats = res.EngStats
	s.gcs = res.VM.Heap().Collections
	return s, nil
}

// runOff is off mode as `dejavu run` performs it, composed from the public
// constructors so vm.New and VM.Run can be timed apart: an Off engine with
// replaycheck's seeded preemption and fake clock, so the schedule is the
// recording modes' schedule. withDigest attaches the digest observer every
// other mode carries; off_bare runs without it.
func (b *bench) runOff(p *prog, withDigest bool, tr *tracer, root, req int) (sample, error) {
	var s sample
	name := modeNames[modeOffBare]
	if withDigest {
		name = modeNames[modeOff]
	}
	ecfg := core.DefaultConfig(core.ModeOff)
	ecfg.Time = &core.FakeTime{Base: timeBase, Step: timeStep}
	ecfg.Preempt = core.NewSeededPreemptor(p.seed, preemptMin, preemptMax)
	var d *replaycheck.Digest
	var observer vm.Observer
	if withDigest {
		d = replaycheck.NewDigest()
		observer = d
	}
	t0 := time.Now()
	eng, err := core.NewEngine(ecfg)
	if err != nil {
		return s, fmt.Errorf("%s %s: engine: %w", p.name, name, err)
	}
	t1 := time.Now()
	m, err := vm.New(p.p, vm.Config{HeapBytes: p.heap, Engine: eng, Observer: observer,
		MaxEvents: maxEvents, IdleSleep: idleSleep})
	if err != nil {
		return s, fmt.Errorf("%s %s: vm: %w", p.name, name, err)
	}
	t2 := time.Now()
	runErr := m.Run()
	t3 := time.Now()
	if runErr != nil {
		return s, fmt.Errorf("%s %s: run: %w", p.name, name, runErr)
	}
	tr.add("core.NewEngine", root, req, t0, t1)
	tr.add("vm.New", root, req, t1, t2)
	tr.add("vm.Run", root, req, t2, t3)
	s.wall, s.newVM, s.run = t3.Sub(t0), t2.Sub(t1), t3.Sub(t2)
	s.events = m.Events()
	s.output = append([]byte(nil), m.Output()...)
	s.stats = eng.Stats()
	s.gcs = m.Heap().Collections
	if d != nil {
		s.digest, s.hasDigest = d.Sum(), true
	}
	return s, nil
}

// check compares a mode run with the program's calibration: the same
// events, the same digest, and the independently computed output.
func (p *prog) check(m mode, s sample) error {
	events, digest, output := p.events, p.digest, p.output
	if m == modeOff || m == modeOffBare {
		events, digest, output = p.offEvents, p.offDigest, p.offOutput
	}
	if s.events != events {
		return fmt.Errorf("%s %s: %d events, calibration ran %d", p.name, modeNames[m], s.events, events)
	}
	if s.hasDigest && s.digest != digest {
		return fmt.Errorf("%s %s: digest %016x, want %016x", p.name, modeNames[m], s.digest, digest)
	}
	if !bytes.Equal(s.output, output) {
		return fmt.Errorf("%s %s: printed %q, want %q", p.name, modeNames[m], s.output, output)
	}
	return nil
}

// calibrate runs p once off (through replaycheck.RunOff, which also guards
// the runOff composition) and once recorded, checks the output against
// the independently computed value, and sizes journal rotation to about
// the given number of segments.
func (p *prog) calibrate(segments int) error {
	o := p.opts()
	off, err := replaycheck.RunOff(p.p, o)
	if err != nil {
		return fmt.Errorf("%s calibrate off: %w", p.name, err)
	}
	if off.RunErr != nil {
		return fmt.Errorf("%s calibrate off: %w", p.name, off.RunErr)
	}
	rec, err := replaycheck.Record(p.p, o)
	if err != nil {
		return fmt.Errorf("%s calibrate record: %w", p.name, err)
	}
	if rec.RunErr != nil {
		return fmt.Errorf("%s calibrate record: %w", p.name, rec.RunErr)
	}
	if p.want != "" {
		if string(rec.Output) != p.want || string(off.Output) != p.want {
			return fmt.Errorf("%s: printed %q off and %q recorded, computed %q", p.name, off.Output, rec.Output, p.want)
		}
		// Off and record follow one schedule, so their executions agree,
		// except where the program prints heap addresses: record mode's
		// symmetric capture buffer shifts them (hashy).
		if off.Digest.Sum() != rec.Digest.Sum() {
			return fmt.Errorf("%s: off digest %016x, record digest %016x", p.name, off.Digest.Sum(), rec.Digest.Sum())
		}
	}
	p.events, p.digest, p.output, p.trace = rec.Events, rec.Digest.Sum(), rec.Output, rec.Trace
	p.offEvents, p.offDigest, p.offOutput = off.Events, off.Digest.Sum(), off.Output
	p.hash = vm.ProgramHash(p.p)
	entries := 0
	if st, ok := rec.VM.Engine().TraceStats(); ok {
		for _, n := range st.Events {
			entries += n
		}
	}
	p.rotate = max(1, entries/segments)
	return nil
}

// seriesValue reads one counter or gauge from reg (0 if absent).
func seriesValue(reg *obs.Registry, name string) int64 {
	for _, s := range reg.Snapshot() {
		if s.Name == name {
			return s.Value
		}
	}
	return 0
}
