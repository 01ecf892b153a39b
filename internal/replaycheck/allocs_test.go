//go:build !race

// Steady-state allocation gate for the record path. Per-run setup (heap
// image, VM construction, trace sink buffers) allocates a bounded amount
// once; the per-event record path — interpret, yield bookkeeping, trace
// encode, scheduler queue traffic, monitor churn — must allocate
// nothing. Amortizing the fixed setup over a run of hundreds of
// thousands of events, the allocs/event ratio must stay effectively
// zero; any per-event allocation (interface boxing in a sink call, a map
// lookup that escapes, a re-sliced queue) pushes it to >= 1 and trips
// the gate immediately.
//
// The race detector instruments allocations in ways that add Go-side
// allocs the production build does not have, so this gate only runs in
// non-race builds; CI runs it as a dedicated job.
package replaycheck_test

import (
	"testing"

	"dejavu/internal/faults/memfs"
	"dejavu/internal/flightrec"
	"dejavu/internal/replaycheck"
	"dejavu/internal/vm"
	"dejavu/internal/workloads"
)

func TestRecordSteadyStateAllocs(t *testing.T) {
	check := func(name string, record func() (uint64, error)) {
		t.Run(name, func(t *testing.T) {
			var events uint64
			allocs := testing.AllocsPerRun(5, func() {
				ev, err := record()
				if err != nil {
					t.Fatal(err)
				}
				events = ev
			})
			if events == 0 {
				t.Fatal("workload produced no events")
			}
			perEvent := allocs / float64(events)
			t.Logf("%.0f allocs / %d events = %.5f allocs/event", allocs, events, perEvent)
			// The fixed per-run setup is ~1-2k allocations; over 100k+
			// events that is well under 0.05/event. One real per-event
			// allocation would put this at >= 1.0.
			if perEvent > 0.05 {
				t.Fatalf("record path allocates %.4f allocs/event (%.0f allocs over %d events); "+
					"the per-event record path must be allocation-free", perEvent, allocs, events)
			}
		})
	}
	check("prodcons", func() (uint64, error) {
		rr, err := replaycheck.Record(workloads.ProdCons(2, 2, 4, 1500),
			replaycheck.Options{Seed: 3, HostRand: 3})
		if err != nil {
			return 0, err
		}
		return rr.Events, rr.RunErr
	})
	check("bank", func() (uint64, error) {
		rr, err := replaycheck.Record(workloads.Bank(4, 8, 2000),
			replaycheck.Options{Seed: 3, HostRand: 3})
		if err != nil {
			return 0, err
		}
		return rr.Events, rr.RunErr
	})
	// Journaled and flight recording run on the same fast path; their
	// rotation polls and checkpoints must not add per-event allocations.
	check("bank-journal", func() (uint64, error) {
		rr, err := replaycheck.RecordJournal(workloads.Bank(4, 8, 2000), memfs.New(),
			replaycheck.Options{Seed: 3, HostRand: 3, RotateEvents: 1000})
		if err != nil {
			return 0, err
		}
		return rr.Events, rr.RunErr
	})
	check("bank-flight", func() (uint64, error) {
		prog := workloads.Bank(4, 8, 2000)
		ring, err := flightrec.NewRing(vm.ProgramHash(prog), flightrec.Options{})
		if err != nil {
			return 0, err
		}
		rr, err := replaycheck.RecordSink(prog, ring, replaycheck.Options{Seed: 3, HostRand: 3})
		if err != nil {
			return 0, err
		}
		return rr.Events, rr.RunErr
	})
}
