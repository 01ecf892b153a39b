package replaycheck_test

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"dejavu/internal/bytecode"
	"dejavu/internal/replaycheck"
	"dejavu/internal/trace"
	"dejavu/internal/vm"
	"dejavu/internal/workloads"
)

func optsFor(name string, seed int64) replaycheck.Options {
	o := replaycheck.Options{Seed: seed, HostRand: seed}
	if name == "sumlines" {
		o.Input = "5\n15\n22\n\n"
	}
	return o
}

func registryJobs(seeds []int64, stream bool) []replaycheck.VerifyJob {
	var jobs []replaycheck.VerifyJob
	for _, name := range workloads.Names() {
		for _, seed := range seeds {
			jobs = append(jobs, replaycheck.VerifyJob{
				Name:    name,
				Prog:    workloads.Registry[name],
				Options: optsFor(name, seed),
				Stream:  stream,
			})
		}
	}
	return jobs
}

// TestVerifyPoolMatchesSequential checks that fanning the checks across
// workers yields exactly the sequential results, in job order.
func TestVerifyPoolMatchesSequential(t *testing.T) {
	jobs := registryJobs([]int64{1, 2}, false)
	seq := replaycheck.VerifyPool(jobs, 1)
	par := replaycheck.VerifyPool(jobs, 4)
	if seq.Passed != len(jobs) || seq.Failed != 0 {
		t.Fatalf("sequential pool: %d/%d passed\n%s", seq.Passed, len(jobs), seq.Report())
	}
	if par.Passed != seq.Passed || par.Failed != seq.Failed {
		t.Fatalf("parallel pool diverges: seq %d/%d, par %d/%d",
			seq.Passed, seq.Failed, par.Passed, par.Failed)
	}
	for i := range jobs {
		if (seq.Runs[i].Err == nil) != (par.Runs[i].Err == nil) {
			t.Fatalf("run %d (%s): seq err=%v, par err=%v",
				i, jobs[i].Name, seq.Runs[i].Err, par.Runs[i].Err)
		}
		if seq.Runs[i].Name != par.Runs[i].Name || seq.Runs[i].Seed != par.Runs[i].Seed {
			t.Fatalf("run %d out of order: seq %s/%d, par %s/%d",
				i, seq.Runs[i].Name, seq.Runs[i].Seed, par.Runs[i].Name, par.Runs[i].Seed)
		}
		if seq.Runs[i].Events != par.Runs[i].Events {
			t.Fatalf("run %d (%s): event counts differ: %d vs %d",
				i, jobs[i].Name, seq.Runs[i].Events, par.Runs[i].Events)
		}
	}
}

// TestVerifyPoolStreaming runs the whole registry through the streaming
// record→replay path concurrently.
func TestVerifyPoolStreaming(t *testing.T) {
	jobs := registryJobs([]int64{3}, true)
	sum := replaycheck.VerifyPool(jobs, 4)
	if sum.Failed != 0 {
		t.Fatalf("streaming pool failures:\n%s", sum.Report())
	}
	if got := sum.Report(); !strings.Contains(got, "replays identical") {
		t.Fatalf("report missing per-workload lines:\n%s", got)
	}
}

// TestVerifyPoolReportsFailures checks divergence aggregation: a program
// whose constructor panics must surface as a failed run, not kill the pool.
func TestVerifyPoolReportsFailures(t *testing.T) {
	jobs := []replaycheck.VerifyJob{
		{Name: "good", Prog: workloads.Fig1AB, Options: optsFor("fig1ab", 1)},
		{Name: "bad", Prog: func() *bytecode.Program { panic("constructor exploded") }},
	}
	sum := replaycheck.VerifyPool(jobs, 2)
	if sum.Passed != 1 || sum.Failed != 1 {
		t.Fatalf("want 1 pass 1 fail, got %d/%d:\n%s", sum.Passed, sum.Failed, sum.Report())
	}
	fails := sum.Failures()
	if len(fails) != 1 || fails[0].Name != "bad" || !strings.Contains(fails[0].Err.Error(), "constructor exploded") {
		t.Fatalf("failure not aggregated: %+v", fails)
	}
	if !strings.Contains(sum.Report(), "FAIL bad") {
		t.Fatalf("report missing failure line:\n%s", sum.Report())
	}
}

// TestVerifyPoolSurvivesPanickingJobs floods a small pool with jobs that
// panic (nil and exploding constructors) interleaved with good ones: every
// panic must land as that run's failure, the good runs must still verify,
// and the pool must terminate — a dead worker would deadlock the feeder on
// the unbuffered index channel.
func TestVerifyPoolSurvivesPanickingJobs(t *testing.T) {
	var jobs []replaycheck.VerifyJob
	for i := 0; i < 8; i++ {
		jobs = append(jobs,
			replaycheck.VerifyJob{Name: "good", Prog: workloads.Fig1AB, Options: optsFor("fig1ab", int64(i+1))},
			replaycheck.VerifyJob{Name: "nilprog", Prog: nil},
			replaycheck.VerifyJob{Name: "boom", Prog: func() *bytecode.Program { panic("boom") }},
		)
	}
	done := make(chan *replaycheck.VerifySummary, 1)
	go func() { done <- replaycheck.VerifyPool(jobs, 2) }()
	var sum *replaycheck.VerifySummary
	select {
	case sum = <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("pool deadlocked after worker panics")
	}
	if sum.Passed != 8 || sum.Failed != 16 {
		t.Fatalf("want 8 passed / 16 failed, got %d/%d:\n%s", sum.Passed, sum.Failed, sum.Report())
	}
	for _, r := range sum.Failures() {
		if !strings.Contains(r.Err.Error(), "panic") {
			t.Fatalf("failure %s not attributed to a panic: %v", r.Name, r.Err)
		}
	}
}

// TestStreamGoldenByteIdentical is the format-compatibility golden test:
// for every workload in the registry, the streams loaded from the streamed
// container must be byte-identical to the ones the in-memory Writer
// produced for the same run.
func TestStreamGoldenByteIdentical(t *testing.T) {
	for _, name := range workloads.Names() {
		t.Run(name, func(t *testing.T) {
			o := optsFor(name, 7)
			prog := workloads.Registry[name]()
			flat, err := replaycheck.Record(prog, o)
			if err != nil || flat.RunErr != nil {
				t.Fatalf("flat record: %v / %v", err, flat.RunErr)
			}
			var buf bytes.Buffer
			streamed, err := replaycheck.RecordTo(workloads.Registry[name](), &buf, o)
			if err != nil || streamed.RunErr != nil {
				t.Fatalf("streamed record: %v / %v", err, streamed.RunErr)
			}
			if streamed.Trace != nil {
				t.Fatalf("streaming record should not materialize Result.Trace")
			}
			if !bytes.HasPrefix(buf.Bytes(), []byte("DVS1")) {
				t.Fatalf("RecordTo did not produce a stream container")
			}
			want, err := trace.NewReader(flat.Trace, vm.ProgramHash(prog))
			if err != nil {
				t.Fatalf("open flat: %v", err)
			}
			got, err := trace.NewReader(buf.Bytes(), vm.ProgramHash(prog))
			if err != nil {
				t.Fatalf("open stream: %v", err)
			}
			if err := sameStreams(want, got); err != nil {
				t.Fatalf("stream container differs from flat container: %v", err)
			}
		})
	}
}

// sameStreams reads a and b in lock-step and reports the first switch or
// data event where they differ. Every decoded value and the byte offset
// after every entry must match, and both data streams must end right after
// EvEnd, so the two encoders' bytes are the same.
func sameStreams(a, b *trace.Reader) error {
	for i := 0; ; i++ {
		x, okA := a.NextSwitch()
		y, okB := b.NextSwitch()
		if okA != okB || x != y || a.Pos() != b.Pos() {
			return fmt.Errorf("switch %d: %d %v at %+v vs %d %v at %+v", i, x, okA, a.Pos(), y, okB, b.Pos())
		}
		if !okA {
			break
		}
	}
	if a.SwitchesRemaining() || b.SwitchesRemaining() {
		return fmt.Errorf("undecodable switch stream tail")
	}
	for {
		ka, errA := a.Peek()
		kb, errB := b.Peek()
		if errA != nil || errB != nil || ka != kb {
			return fmt.Errorf("event %d: %v (%v) vs %v (%v)", a.EventIndex(), ka, errA, kb, errB)
		}
		var va, vb any
		switch ka {
		case trace.EvClock:
			va, errA = a.Clock()
			vb, errB = b.Clock()
		case trace.EvNative:
			id := nativeID(a)
			va, errA = a.Native(id)
			vb, errB = b.Native(id)
		case trace.EvInput:
			va, errA = a.Input()
			vb, errB = b.Input()
		case trace.EvCallback:
			cbA, pA, eA := a.Callback()
			cbB, pB, eB := b.Callback()
			va, vb, errA, errB = fmt.Sprint(cbA, pA), fmt.Sprint(cbB, pB), eA, eB
		case trace.EvEnd:
			// EvEnd has no payload: step over its tag; nothing may follow.
			for _, r := range []*trace.Reader{a, b} {
				p := r.Pos()
				p.Pos++
				r.Seek(p)
				var te *trace.TruncatedError
				if _, err := r.Peek(); !errors.As(err, &te) {
					return fmt.Errorf("bytes after EvEnd at %+v", p)
				}
			}
			return nil
		}
		if errA != nil || errB != nil || fmt.Sprint(va) != fmt.Sprint(vb) || a.Pos() != b.Pos() {
			return fmt.Errorf("%v event %d: %v (%v) at %+v vs %v (%v) at %+v",
				ka, a.EventIndex()-1, va, errA, a.Pos(), vb, errB, b.Pos())
		}
	}
}

// nativeID returns the recorded native id of the event at r's position
// (Native checks the id rather than returning it), leaving r where it was.
func nativeID(r *trace.Reader) int {
	p := r.Pos()
	defer r.Seek(p)
	for id := 0; id < 1<<10; id++ {
		r.Seek(p)
		if _, err := r.Native(id); err == nil {
			return id
		}
	}
	return -1
}

// TestStreamReplayBothPaths replays one streamed recording through both
// Source paths — StreamReader directly, and the Reader NewReader loads
// from the same bytes — and requires all three executions to be identical.
func TestStreamReplayBothPaths(t *testing.T) {
	for _, name := range []string{"bank", "prodcons", "sumlines"} {
		t.Run(name, func(t *testing.T) {
			o := optsFor(name, 11)
			var buf bytes.Buffer
			rec, err := replaycheck.RecordTo(workloads.Registry[name](), &buf, o)
			if err != nil || rec.RunErr != nil {
				t.Fatalf("record: %v / %v", err, rec.RunErr)
			}
			repStream, err := replaycheck.ReplayFrom(workloads.Registry[name](), bytes.NewReader(buf.Bytes()), o)
			if err != nil || repStream.RunErr != nil {
				t.Fatalf("streamed replay: %v / %v", err, repStream.RunErr)
			}
			if err := replaycheck.CompareRuns(rec, repStream); err != nil {
				t.Fatalf("streamed replay diverged: %v", err)
			}
			repLoaded, err := replaycheck.Replay(workloads.Registry[name](), buf.Bytes(), o)
			if err != nil || repLoaded.RunErr != nil {
				t.Fatalf("loaded replay: %v / %v", err, repLoaded.RunErr)
			}
			if err := replaycheck.CompareRuns(rec, repLoaded); err != nil {
				t.Fatalf("replay of the loaded stream diverged: %v", err)
			}
		})
	}
}

// BenchmarkVerifyPool measures the fan-out win: the same job matrix at 1
// worker vs 4. On multicore hosts the 4-worker run should be ≥2× faster.
func BenchmarkVerifyPool(b *testing.B) {
	jobs := registryJobs([]int64{1, 2, 3, 4}, false)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sum := replaycheck.VerifyPool(jobs, workers)
				if sum.Failed != 0 {
					b.Fatalf("failures:\n%s", sum.Report())
				}
			}
		})
	}
}
