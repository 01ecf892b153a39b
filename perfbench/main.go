// Command perfbench is DejaVu's end-to-end and per-layer benchmark.
//
//	perfbench --workload compute|contended --seed N --seconds S --trace 0|1
//
// It runs from the repository root and keeps its files under .bench_build.
// Every input is derived from --seed: the preemption seed of each program,
// the session seeds, the order in which session clients pick programs, and
// the travel targets. Each run has two timed phases:
//
//   - the mode sweep runs every program of the workload in six modes (off,
//     in-memory record, replay, file record, segmented journal, flight
//     ring) at the program's seed, interleaved and repeated, and reports
//     the geomean over programs of each mode's median Mev/s;
//   - the session lifecycle drives two closed-loop clients against an
//     in-process sessions.Manager: create, twelve travels, verify, kill.
//
// Every time is scaled to a reference speed (see speed.go).
//
// Every output is checked: printed results against values computed here,
// one digest across the modes, and the verify digest against the recorded
// one. With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// records spans around every public call, alternates traced and untraced
// work to report the tracing overhead, runs the layer microbenchmarks, and
// prints the per-layer metrics. The last line of standard output is the
// JSON result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"syscall"
	"time"

	"dejavu/internal/bytecode"
	"dejavu/internal/vm"
)

// setupReps is how often set-up is repeated; setup_s is the median.
const setupReps = 7

// gcPercent is the Go collector's heap growth allowance. Peak memory is
// the live heap plus what the collector lets accumulate before its next
// cycle, and when that cycle starts relative to the sessions' checkpoints
// varies from run to run: at Go's default of 100, max_rss_mb spread 23%
// (quartile distance over median) across runs of the same code; at 50, 5%.
// At 25 it spread 4%, but creates took half as long again, mostly in the
// collector.
const gcPercent = 50

// sweepHeap is the semispace of sweep programs that do not set their own.
// A journal checkpoint copies the whole heap image, and the sweep records
// journals back to back: at the 1 MiB default that is gigabytes of writes
// per run, which measures the host's memory and page cache. Sessions keep
// the default heap, so checkpoint size still shows in create latency.
const sweepHeap = 64 << 10

type bench struct {
	w       workload
	seed    int64
	seconds float64
	work    string // this run's files, removed at exit
	scratch string // mode-sweep and microbenchmark files

	sweep    []*prog
	sessions []*prog
	untraced *pool
	traced   *pool   // traced runs only
	tr       *tracer // traced runs only

	decodeMS       []float64 // per set-up: DecodeProgram over the sweep programs
	fused, decoded int       // fused pairs and decoded-stream entries, sweep programs

	ref *speedRef // the main goroutine's: set-up and the mode sweep
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: compute or contended")
	seed := flag.Int64("seed", 1, "workload seed; every generated input derives from it")
	seconds := flag.Float64("seconds", 10, "measured time, split between the two phases")
	traceFlag := flag.Int("trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload compute|contended --seed N --seconds S --trace 0|1\n")
		return 2
	}
	decl, err := loadDeclaration()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	debug.SetGCPercent(gcPercent)
	b := &bench{w: w, seed: *seed, seconds: *seconds, ref: newSpeedRef(),
		work: filepath.Join(".bench_build", "work", strconv.Itoa(os.Getpid()))}
	b.scratch = filepath.Join(b.work, "scratch")
	defer os.RemoveAll(b.work)
	want := decl.EndToEnd
	if *traceFlag == 1 {
		b.tr = newTracer()
		want = decl.PerLayer
	}
	res, err := b.measure()
	if err == nil {
		err = checkDeclared(want, res.Metrics)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	res.report(os.Stderr)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// setup does everything before the first timed operation: build, verify
// and decode the programs, write the session programs' images, construct
// the session managers, and calibrate every program (one off and one
// record run that fix the reference output, digest and trace). It returns
// how long that took.
func (b *bench) setup(rep int) (time.Duration, error) {
	dir := filepath.Join(b.work, fmt.Sprintf("setup%d", rep))
	rng := rand.New(rand.NewSource(b.seed))
	start := time.Now()
	if err := os.MkdirAll(filepath.Join(dir, "images"), 0o755); err != nil {
		return 0, err
	}
	var decode time.Duration
	b.fused, b.decoded = 0, 0
	load := func(specs []spec, images bool) ([]*prog, error) {
		var out []*prog
		for _, s := range specs {
			p := &prog{spec: s, p: s.build(), seed: rng.Int63n(1 << 31)}
			if !images && p.heap == 0 {
				p.heap = sweepHeap
			}
			if _, err := vm.VerifyProgram(p.p); err != nil {
				return nil, fmt.Errorf("%s: verify: %w", s.name, err)
			}
			t0 := time.Now()
			dp := bytecode.DecodeProgram(p.p, true)
			if !images {
				decode += time.Since(t0)
				b.fused += dp.FusedPairs
				for _, m := range dp.Methods {
					b.decoded += len(m.Code)
				}
				b.decoded -= dp.FusedPairs // a fused pair is one stream entry
			}
			if images {
				p.image, _ = filepath.Abs(filepath.Join(dir, "images", s.name+".dva"))
				if err := os.WriteFile(p.image, bytecode.EncodeImage(p.p), 0o644); err != nil {
					return nil, err
				}
			}
			out = append(out, p)
		}
		return out, nil
	}
	var err error
	if b.sweep, err = load(b.w.sweep, false); err != nil {
		return 0, err
	}
	if b.sessions, err = load(b.w.sessions, true); err != nil {
		return 0, err
	}
	if b.untraced, err = newPool(filepath.Join(dir, "root"), false); err != nil {
		return 0, err
	}
	if b.tr != nil {
		if b.traced, err = newPool(filepath.Join(dir, "troot"), true); err != nil {
			return 0, err
		}
	}
	for _, p := range b.sweep {
		if err := p.calibrate(sweepSegments); err != nil {
			return 0, err
		}
	}
	for _, p := range b.sessions {
		if err := p.calibrate(sessionSegments); err != nil {
			return 0, err
		}
	}
	elapsed := time.Since(start)
	b.decodeMS = append(b.decodeMS, float64(decode.Nanoseconds())/1e6)
	return elapsed, nil
}

// sweepResult holds the mode sweep's samples, indexed
// [traced][program][mode].
type sweepResult struct {
	samples           [2][][numModes][]sample
	rounds            int
	attempted, failed int
	errs              []string
}

// sweepPhase runs rounds until deadline (at least two per flavour). A
// round runs every program in every mode once; the program order and the
// mode order rotate from round to round so no mode always follows
// another. In traced runs rounds alternate between untraced and traced.
func (b *bench) sweepPhase(deadline time.Time) *sweepResult {
	r := &sweepResult{}
	for t := range r.samples {
		r.samples[t] = make([][numModes][]sample, len(b.sweep))
	}
	modes := int(numE2EModes)
	flavours := 1
	if b.tr != nil {
		modes, flavours = int(numModes), 2
	}
	for ; r.rounds < 2*flavours || time.Now().Before(deadline); r.rounds++ {
		traced := b.tr != nil && r.rounds%2 == 1
		tr := (*tracer)(nil)
		slot := 0
		if traced {
			tr, slot = b.tr, 1
		}
		for i := range b.sweep {
			pi := (i + r.rounds) % len(b.sweep)
			p := b.sweep[pi]
			for j := 0; j < modes; j++ {
				m := mode((j + r.rounds + i) % modes)
				r.attempted++
				before := b.ref.prev()
				s, err := b.runMode(p, m, tr)
				s.rescale(before, b.ref.loop())
				if err == nil {
					err = p.check(m, s)
				}
				if err != nil {
					r.failed++
					if len(r.errs) < 5 {
						r.errs = append(r.errs, err.Error())
					}
					continue
				}
				r.samples[slot][pi][m] = append(r.samples[slot][pi][m], s)
			}
		}
	}
	return r
}

// wall is a program-mode's median wall time at reference speed, in
// seconds.
func wall(ss []sample) float64 {
	return medianOf(ss, func(s sample) time.Duration { return s.wall })
}

// medianOf is the median of one duration across samples, in seconds; 0
// for no samples.
func medianOf(ss []sample, d func(sample) time.Duration) float64 {
	var xs []float64
	for _, s := range ss {
		xs = append(xs, d(s).Seconds())
	}
	return median(xs)
}

// mevs is the geomean over programs of each program's Mev/s in mode m.
func (r *sweepResult) mevs(slot int, progs []*prog, m mode) float64 {
	var per []float64
	for pi, p := range progs {
		per = append(per, ratio(float64(p.events)/1e6, wall(r.samples[slot][pi][m])))
	}
	return geomean(per)
}

// increment is the per-event cost of mode hi over mode lo in ns, summed
// over programs: Σ(wall hi − wall lo) / Σ events.
func (r *sweepResult) increment(progs []*prog, hi, lo mode) float64 {
	var d, ev float64
	for pi, p := range progs {
		d += wall(r.samples[1][pi][hi]) - wall(r.samples[1][pi][lo])
		ev += float64(p.events)
	}
	return d * 1e9 / ev
}

// result is the benchmark's JSON output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`

	notes []string
	errs  []string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

// set records a metric under its declared unit.
func (m metrics) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: units[name]}
}

func (b *bench) measure() (*result, error) {
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		runtime.GC() // each set-up starts from a collected heap
		before := b.ref.prev()
		d, err := b.setup(rep)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, scale(d, before, b.ref.loop()).Seconds())
	}
	if err := os.MkdirAll(b.scratch, 0o755); err != nil {
		return nil, err
	}

	total := time.Duration(b.seconds * float64(time.Second))
	sweepDur := time.Duration(float64(total) * b.w.sweepFrac)
	start := time.Now()
	sw := b.sweepPhase(start.Add(sweepDur))
	var gcBefore, gcAfter runtime.MemStats
	runtime.ReadMemStats(&gcBefore)
	lc := b.lifecycle(start.Add(total))
	runtime.ReadMemStats(&gcAfter)

	res := &result{Metrics: metrics{}}
	res.Attempted = sw.attempted + lc.untraced.attempted + lc.traced.attempted
	res.Failed = sw.failed + lc.untraced.failed + lc.traced.failed
	res.errs = append(append(append(res.errs, sw.errs...), lc.untraced.errs...), lc.traced.errs...)
	res.notes = append(res.notes, fmt.Sprintf("%d sweep rounds, %d+%d session cycles in %.1fs",
		sw.rounds, lc.untraced.cycles, lc.traced.cycles, lc.elapsed.Seconds()))

	if b.tr == nil {
		b.endToEnd(res, sw, &lc, median(setups))
	} else {
		if err := b.perLayer(res, sw, &lc, gcAfter.PauseTotalNs-gcBefore.PauseTotalNs); err != nil {
			return nil, err
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// endToEnd fills the untraced run's metrics.
func (b *bench) endToEnd(res *result, sw *sweepResult, lc *lifecycleResult, setupS float64) {
	m := res.Metrics
	m.set("setup_s", setupS)
	for mo := modeOff; mo < numE2EModes; mo++ {
		m.set(modeNames[mo]+"_mevs", sw.mevs(0, b.sweep, mo))
	}
	var bytes, events float64
	for pi, p := range b.sweep {
		if ss := sw.samples[0][pi][modeRecord]; len(ss) > 0 {
			bytes += float64(ss[0].traceBytes)
			events += float64(p.events)
		}
	}
	m.set("trace_bytes_per_kev", ratio(bytes*1000, events))
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		m.set("max_rss_mb", float64(ru.Maxrss)/1024)
	}
	c := &lc.untraced
	m.set("create_p50_ms", c.create.p50())
	m.set("travel_p50_ms", c.travel.p50())
	m.set("verify_p50_ms", c.verify.p50())
	m.set("lifecycles_per_s", c.cycle.rate(numClients))
	res.notes = append(res.notes, fmt.Sprintf("%d cycles completed in %.1fs", c.cycles, lc.elapsed.Seconds()))
	for _, p := range b.sessions {
		res.notes = append(res.notes, fmt.Sprintf("session %s: median ms create %.2f travel %.3f verify %.2f over %d creates",
			p.name, median(c.create[p.name]), median(c.travel[p.name]), median(c.verify[p.name]), len(c.create[p.name])))
	}
	for pi, p := range b.sweep {
		ss := &sw.samples[0][pi]
		line := fmt.Sprintf("%s (%d events): median ms at reference speed", p.name, p.events)
		for mo := modeOff; mo < numE2EModes; mo++ {
			line += fmt.Sprintf(" %s %.2f", modeNames[mo], wall(ss[mo])*1e3)
		}
		res.notes = append(res.notes, line, fmt.Sprintf("E4 %s: record/off Mev/s = %.3f over %d+%d interleaved runs",
			p.name, ratio(wall(ss[modeOff]), wall(ss[modeRecord])), len(ss[modeOff]), len(ss[modeRecord])))
	}
}

// perLayer fills the traced run's metrics from the traced samples, the
// spans and the microbenchmarks.
func (b *bench) perLayer(res *result, sw *sweepResult, lc *lifecycleResult, gcPauseNS uint64) error {
	m := res.Metrics
	m.set("bytecode.decode_ms", median(b.decodeMS))
	m.set("bytecode.fused_frac", ratio(float64(b.fused), float64(b.decoded)))

	var newMS []float64
	var runNS, events, switches, yields, clocks, gcs, mallocs, recEvents float64
	var fsyncs, journals, rotations, flights float64
	var e4 []float64
	for pi, p := range b.sweep {
		ss := &sw.samples[1][pi]
		newMS = append(newMS, 1e3*medianOf(ss[modeOffBare], func(s sample) time.Duration { return s.newVM }))
		runNS += 1e9 * medianOf(ss[modeOffBare], func(s sample) time.Duration { return s.run })
		events += float64(p.events)
		if len(ss[modeRecord]) > 0 {
			st := ss[modeRecord][0].stats
			switches += float64(st.Switches)
			yields += float64(st.YieldPoints)
			clocks += float64(st.ClockReads)
		}
		if len(ss[modeOff]) > 0 {
			gcs += float64(ss[modeOff][0].gcs)
		}
		for _, s := range ss[modeRecord] {
			mallocs += float64(s.mallocs)
			recEvents += float64(s.events)
		}
		for _, s := range ss[modeJournal] {
			fsyncs += float64(s.fsyncs)
			journals++
		}
		for _, s := range ss[modeFlight] {
			rotations += float64(s.flightRot)
			flights++
		}
		e4 = append(e4, ratio(wall(ss[modeOff]), wall(ss[modeRecord])))
	}
	m.set("vm.new_ms", geomean(newMS))
	m.set("vm.run_ns_per_event", runNS/events)
	m.set("vm.observer_ns_per_event", sw.increment(b.sweep, modeOff, modeOffBare))
	m.set("heap.collections_per_mev", gcs*1e6/events)
	m.set("threads.switches_per_kev", switches*1e3/events)
	m.set("core.record_ns_per_event", sw.increment(b.sweep, modeRecord, modeOff))
	m.set("core.replay_ns_per_event", sw.increment(b.sweep, modeReplay, modeOff))
	m.set("core.yield_points_per_kev", yields*1e3/events)
	m.set("core.clock_reads_per_kev", clocks*1e3/events)
	m.set("core.record_over_off", geomean(e4))
	m.set("trace.stream_ns_per_event", sw.increment(b.sweep, modeDiscard, modeRecord))
	m.set("trace.file_ns_per_event", sw.increment(b.sweep, modeFile, modeDiscard))
	m.set("trace.journal_ns_per_event", sw.increment(b.sweep, modeJournal, modeFile))
	m.set("flightrec.ring_ns_per_event", sw.increment(b.sweep, modeFlight, modeRecord))
	m.set("flightrec.rotations_per_run", ratio(rotations, flights))
	m.set("go.allocs_per_event", ratio(mallocs, recEvents))

	t := &lc.traced
	fsyncs += float64(b.traced.fsyncs.Load())
	journals += float64(t.journal)
	m.set("trace.fsyncs_per_run", ratio(fsyncs, journals))
	m.set("trace.checkpoints_per_run", ratio(float64(t.checkpoints), float64(t.journal)))
	m.set("trace.journal_bytes_per_kev", ratio(float64(t.journalBytes)*1e3, float64(t.recorded)))
	m.set("trace.checkpoint_bytes_frac", ratio(float64(t.checkpointBytes), float64(t.journalBytes)))
	travels := seriesValue(b.traced.reg, "dv_sessions_travels_total")
	m.set("sessions.reseed_frac", ratio(float64(seriesValue(b.traced.reg, "dv_journal_reseeds_total")), float64(travels)))
	m.set("sessions.workers_busy_frac", mean(lc.busySamples))
	m.set("sessions.refusals", float64(b.traced.refusals()))
	m.set("go.gc_pause_ms", ratio(float64(gcPauseNS)/1e6, float64(lc.untraced.cycles+lc.traced.cycles)))
	// Tails of the untraced cycles. A host that stops the guest for tens of
	// milliseconds sets them, so they carry no bound.
	createTail, createPct := lc.untraced.create.tail()
	travelTail, travelPct := lc.untraced.travel.tail()
	m.set("create_tail_ms", createTail)
	m.set("travel_tail_ms", travelTail)
	res.notes = append(res.notes,
		fmt.Sprintf("create_tail_ms is p%.1f of %d creates; travel_tail_ms is p%.1f of %d travels",
			createPct, lc.untraced.create.count(), travelPct, lc.untraced.travel.count()))

	self, roots := b.tr.selfTimes()
	for _, mod := range selfModules {
		m.set("selftime."+mod+"_frac", ratio(float64(self[mod]), float64(roots)))
	}
	// Tracing overhead: traced against untraced rounds and cycles of this
	// same run, which alternate so that machine noise falls on both.
	var up, tp []float64
	for mo := modeOff; mo < numModes; mo++ {
		up = append(up, sw.mevs(0, b.sweep, mo))
		tp = append(tp, sw.mevs(1, b.sweep, mo))
	}
	m.set("tracing.sweep_overhead_pct", 100*(ratio(geomean(up), geomean(tp))-1))
	m.set("tracing.create_overhead_pct", 100*(ratio(t.create.p50(), lc.untraced.create.p50())-1))

	if err := b.layerBenches(m); err != nil {
		return err
	}
	spans := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", b.w.name, b.seed))
	if err := b.tr.write(spans); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	res.notes = append(res.notes, "spans written to "+spans)
	return nil
}

// selfModules are the modules whose span self time is reported.
var selfModules = []string{"perfbench", "replaycheck", "core", "vm", "trace", "flightrec", "sessions"}

// report prints a human-readable summary.
func (r *result) report(w *os.File) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-40s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, "note:", n)
	}
	for _, e := range r.errs {
		fmt.Fprintln(w, "FAILED:", e)
	}
	fmt.Fprintf(w, "attempted %d, failed %d\n", r.Attempted, r.Failed)
}
