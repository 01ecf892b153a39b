package replaycheck

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"dejavu/internal/bytecode"
	"dejavu/internal/core"
	"dejavu/internal/obs"
)

// VerifyJob is one record→replay accuracy check: a program constructor
// (invoked fresh per run, so concurrent runs never share mutable program
// state) plus the run options. Name groups runs in the summary.
type VerifyJob struct {
	Name    string
	Prog    func() *bytecode.Program
	Options Options

	// Stream routes the check through the streaming trace pipeline
	// (RecordTo → ReplayFrom) instead of the in-memory container,
	// verifying the two paths agree.
	Stream bool

	// Timeout bounds the whole job. A job that overruns it is counted as
	// a failure with a core.ErrStalled reason — it cannot stall the pool.
	// The job's replay watchdog (Options.ProgressDeadline) is armed with
	// the same value when not set explicitly, so the abandoned run also
	// terminates itself instead of leaking a spinning goroutine.
	Timeout time.Duration
}

// VerifyRun is the outcome of one job.
type VerifyRun struct {
	Name     string
	Seed     int64
	Err      error // nil: replay was behaviorally identical
	Events   uint64
	Duration time.Duration
}

// VerifySummary aggregates a pool run.
type VerifySummary struct {
	Runs           []VerifyRun // in job order
	Passed, Failed int
	Wall           time.Duration
	Workers        int
}

// Failures returns the diverged runs, in job order.
func (s *VerifySummary) Failures() []VerifyRun {
	var out []VerifyRun
	for _, r := range s.Runs {
		if r.Err != nil {
			out = append(out, r)
		}
	}
	return out
}

// ByName folds runs into per-name pass/total counts.
func (s *VerifySummary) ByName() map[string][2]int {
	out := map[string][2]int{}
	for _, r := range s.Runs {
		c := out[r.Name]
		if r.Err == nil {
			c[0]++
		}
		c[1]++
		out[r.Name] = c
	}
	return out
}

// Report renders the aggregated divergence report: one line per job group
// and one per failure.
func (s *VerifySummary) Report() string {
	var b strings.Builder
	byName := s.ByName()
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		c := byName[n]
		fmt.Fprintf(&b, "%-20s %d/%d replays identical\n", n, c[0], c[1])
	}
	for _, r := range s.Failures() {
		fmt.Fprintf(&b, "FAIL %s seed=%d: %v\n", r.Name, r.Seed, r.Err)
	}
	fmt.Fprintf(&b, "verified %d/%d runs in %v (%d workers)\n",
		s.Passed, s.Passed+s.Failed, s.Wall.Round(time.Millisecond), s.Workers)
	return b.String()
}

// VerifyPool fans the jobs across a worker pool and aggregates the per-run
// divergence reports. Each VM is single-goroutine, so N seeds × M
// workloads parallelize trivially; workers ≤ 0 selects GOMAXPROCS.
// Results keep job order regardless of completion order.
func VerifyPool(jobs []VerifyJob, workers int) *VerifySummary {
	return VerifyPoolObs(jobs, workers, nil)
}

// poolMetrics holds the pool's obs series; all nil-safe no-ops when the
// registry is nil.
type poolMetrics struct {
	jobs     *obs.Counter   // jobs completed (passed or failed)
	failures *obs.Counter   // jobs whose replay diverged or errored
	timeouts *obs.Counter   // jobs abandoned at their Timeout
	panics   *obs.Counter   // panics recovered inside job runs
	wall     *obs.Histogram // per-job wall time
}

// VerifyPoolObs is VerifyPool exporting pool metrics into reg: jobs
// completed, failures, timeouts, recovered panics, and a per-job wall-time
// histogram. The registry is shared across workers (its metrics are
// atomics), and a nil reg collects nothing.
func VerifyPoolObs(jobs []VerifyJob, workers int, reg *obs.Registry) *VerifySummary {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) && len(jobs) > 0 {
		workers = len(jobs)
	}
	pm := poolMetrics{
		jobs:     reg.Counter("dv_verify_jobs_total"),
		failures: reg.Counter("dv_verify_failures_total"),
		timeouts: reg.Counter("dv_verify_timeouts_total"),
		panics:   reg.Counter("dv_verify_panics_recovered_total"),
		wall:     reg.Histogram("dv_verify_job_seconds"),
	}
	start := time.Now()
	sum := &VerifySummary{Runs: make([]VerifyRun, len(jobs)), Workers: workers}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				run := safeVerifyJob(jobs[i], pm)
				pm.jobs.Inc()
				pm.wall.Observe(run.Duration)
				if run.Err != nil {
					pm.failures.Inc()
				}
				sum.Runs[i] = run
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	sum.Wall = time.Since(start)
	for _, r := range sum.Runs {
		if r.Err == nil {
			sum.Passed++
		} else {
			sum.Failed++
		}
	}
	return sum
}

// safeVerifyJob guards the worker goroutine itself. runVerifyJob recovers
// panics raised while running a job, but a panic escaping it (a panicking
// recover path, a nil job constructor caught at the wrong layer) would kill
// the worker — and with the feeder blocked on the unbuffered index channel,
// deadlock the whole pool. Here it becomes one failed run instead.
func safeVerifyJob(j VerifyJob, pm poolMetrics) (run VerifyRun) {
	defer func() {
		if r := recover(); r != nil {
			pm.panics.Inc()
			run = VerifyRun{Name: j.Name, Seed: j.Options.Seed,
				Err: fmt.Errorf("verify worker panic: %v", r)}
		}
	}()
	if j.Timeout <= 0 {
		return runVerifyJob(j, pm)
	}
	// Bounded job: run it in its own goroutine and give up at the deadline.
	// The abandoned goroutine keeps its replay watchdog (armed from the
	// same timeout), so it aborts itself shortly after rather than spinning
	// for the process lifetime.
	start := time.Now()
	done := make(chan VerifyRun, 1)
	go func() { done <- runVerifyJob(j, pm) }()
	select {
	case run = <-done:
		return run
	case <-time.After(j.Timeout):
		pm.timeouts.Inc()
		return VerifyRun{
			Name: j.Name, Seed: j.Options.Seed,
			Err:      &core.StalledError{Thread: -1, Deadline: j.Timeout},
			Duration: time.Since(start),
		}
	}
}

func runVerifyJob(j VerifyJob, pm poolMetrics) (run VerifyRun) {
	start := time.Now()
	if j.Timeout > 0 && j.Options.ProgressDeadline == 0 {
		j.Options.ProgressDeadline = j.Timeout
	}
	run = VerifyRun{Name: j.Name, Seed: j.Options.Seed}
	defer func() {
		if r := recover(); r != nil {
			pm.panics.Inc()
			run.Err = fmt.Errorf("panic: %v", r)
		}
		run.Duration = time.Since(start)
	}()
	var rec, rep *Result
	var err error
	if j.Stream {
		rec, rep, err = checkReplayStream(j.Prog(), j.Options)
	} else {
		rec, _, err = CheckReplay(j.Prog(), j.Options)
	}
	_ = rep
	run.Err = err
	if rec != nil {
		run.Events = rec.Events
	}
	return run
}

// checkReplayStream is CheckReplay routed through the streaming container:
// record streams the trace out chunk by chunk, replay streams it back in.
func checkReplayStream(prog *bytecode.Program, o Options) (rec, rep *Result, err error) {
	var buf bytes.Buffer
	if o, err = o.withImage(prog); err == nil {
		rec, err = RecordTo(prog, &buf, o)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("record setup: %w", err)
	}
	if rec.RunErr != nil {
		return rec, nil, fmt.Errorf("record run: %w", rec.RunErr)
	}
	rep, err = ReplayFrom(prog, bytes.NewReader(buf.Bytes()), o)
	if err != nil {
		return rec, nil, fmt.Errorf("replay setup: %w", err)
	}
	if rep.RunErr != nil {
		return rec, rep, fmt.Errorf("replay run: %w", rep.RunErr)
	}
	return rec, rep, CompareRuns(rec, rep)
}
