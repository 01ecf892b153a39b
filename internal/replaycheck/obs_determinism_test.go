package replaycheck_test

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"

	"dejavu/internal/bytecode"
	"dejavu/internal/core"
	"dejavu/internal/dbgproto"
	"dejavu/internal/debugger"
	"dejavu/internal/faults/memfs"
	"dejavu/internal/obs"
	"dejavu/internal/replaycheck"
	"dejavu/internal/workloads"
)

// TestMetricsPreserveReplayDeterminism is the paper's perturbation-freedom
// claim applied to the observability subsystem: a run with a metrics
// registry attached must produce a bit-identical trace and a bit-identical
// replay digest to a run without one. Metrics live outside the logical
// clock, so turning them on may not move a single event. The second case
// adds seeded preemption and a small heap.
func TestMetricsPreserveReplayDeterminism(t *testing.T) {
	for _, c := range []struct {
		name string
		o    replaycheck.Options
	}{
		{"seed11", replaycheck.Options{Seed: 11, HostRand: 11}},
		{"preempt2-9", replaycheck.Options{Seed: 7, HostRand: 7, PreemptMin: 2, PreemptMax: 9, HeapBytes: 1 << 17}},
	} {
		t.Run(c.name, func(t *testing.T) { checkMetricsPreserveDeterminism(t, c.o) })
	}
}

func checkMetricsPreserveDeterminism(t *testing.T, o replaycheck.Options) {
	t.Helper()
	recPlain, err := replaycheck.Record(workloads.Events(400), o)
	if err != nil {
		t.Fatal(err)
	}
	repPlain, err := replaycheck.Replay(workloads.Events(400), recPlain.Trace, o)
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	oObs := o
	oObs.TweakEngine = func(cfg *core.Config) { cfg.Obs = reg }
	recObs, err := replaycheck.Record(workloads.Events(400), oObs)
	if err != nil {
		t.Fatal(err)
	}
	repObs, err := replaycheck.Replay(workloads.Events(400), recObs.Trace, oObs)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*replaycheck.Result{recPlain, repPlain, recObs, repObs} {
		if r.RunErr != nil {
			t.Fatal(r.RunErr)
		}
	}

	if !bytes.Equal(recPlain.Trace, recObs.Trace) {
		t.Fatalf("metrics perturbed the recording: trace differs (%d vs %d bytes)",
			len(recPlain.Trace), len(recObs.Trace))
	}
	if recPlain.Digest.Sum() != recObs.Digest.Sum() {
		t.Fatalf("metrics perturbed the recorded execution: digest %x vs %x",
			recPlain.Digest.Sum(), recObs.Digest.Sum())
	}
	if repPlain.Digest.Sum() != repObs.Digest.Sum() {
		t.Fatalf("metrics perturbed the replay: digest %x vs %x",
			repPlain.Digest.Sum(), repObs.Digest.Sum())
	}
	if repPlain.Digest.Sum() != recPlain.Digest.Sum() {
		t.Fatalf("replay diverged from recording: digest %x vs %x",
			repPlain.Digest.Sum(), recPlain.Digest.Sum())
	}
	// And the registry must have actually observed the instrumented runs —
	// a vacuous pass (metrics silently off) proves nothing.
	if v := reg.Counter("dv_engine_yield_points_total").Value(); v == 0 {
		t.Fatal("registry collected nothing; the determinism check is vacuous")
	}
	if v := reg.Counter("dv_engine_switches_total").Value(); o.PreemptMax > 0 && v == 0 {
		t.Fatal("seeded preemption recorded no switch; the trace check is vacuous")
	}
}

// TestObsRegistrySharedAcrossServices drives one Registry from every
// concurrent producer at once — verification-pool workers and a live
// dbgproto session doing time travel over a journal — and then snapshots
// it. Run under -race, this is the proof that the registry's atomics make
// cross-service sharing safe.
func TestObsRegistrySharedAcrossServices(t *testing.T) {
	reg := obs.NewRegistry()

	// A journal-backed debug session whose engines all feed reg.
	fs := memfs.New()
	if _, err := replaycheck.RecordJournal(workloads.Events(200), fs, replaycheck.Options{Seed: 5, HostRand: 5, RotateEvents: 50}); err != nil {
		t.Fatal(err)
	}
	d, err := debugger.OpenJournal(mustImage(t, workloads.Events(200)), fs, 0, reg)
	if err != nil {
		t.Fatal(err)
	}
	srv := &dbgproto.Server{D: d, Obs: reg}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go srv.Serve(l)

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		rd := make([]byte, 4096)
		for i := 0; i < 20; i++ {
			// Alternate travel targets to force both in-session rewinds and
			// durable re-seeds while the pool hammers the same registry.
			if _, err := fmt.Fprintf(conn, "travel %d\nstatus\n", 10+(i%5)*30); err != nil {
				t.Error(err)
				return
			}
			if _, err := conn.Read(rd); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		jobs := make([]replaycheck.VerifyJob, 8)
		for i := range jobs {
			seed := int64(i + 1)
			jobs[i] = replaycheck.VerifyJob{
				Name:    "events",
				Prog:    func() *bytecode.Program { return workloads.Events(100) },
				Options: replaycheck.Options{Seed: seed, HostRand: seed, TweakEngine: func(cfg *core.Config) { cfg.Obs = reg }},
				Stream:  true,
			}
		}
		sum := replaycheck.VerifyPoolObs(jobs, 4, reg)
		if sum.Failed != 0 {
			t.Errorf("verify pool failures under shared registry:\n%s", sum.Report())
		}
	}()
	wg.Wait()

	var buf bytes.Buffer
	obs.WritePrometheus(&buf, reg.Snapshot())
	text := buf.String()
	for _, want := range []string{"dv_verify_jobs_total", "dv_dbg_commands_total", "dv_engine_yield_points_total"} {
		if !strings.Contains(text, want) {
			t.Errorf("shared registry snapshot missing %s:\n%s", want, text)
		}
	}
}
