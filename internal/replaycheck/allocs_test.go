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
	"errors"
	"io"
	"runtime"
	"sort"
	"testing"

	"dejavu/internal/faults/memfs"
	"dejavu/internal/flightrec"
	"dejavu/internal/replaycheck"
	"dejavu/internal/trace"
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
	t.Run("hashy-rotation", testRotationAllocs)
}

// testRotationAllocs gates what one journal rotation allocates once the
// first has sized the reused buffers: the checkpoint encode, the segment
// seal, the checkpoint and manifest files and the next segment's writer.
// hashy(100,25) at the default 1 MiB heap rotates about 20 times into a
// filesystem that discards every write. Its heap never collects, so each
// checkpoint is some 8 KB larger than the one before (22-172 KB), and the
// reused buffers grow to fit on some rotations; the median rotation shows
// the steady cost. A rotation that copies the heap, the threads or the
// checkpoint file once more allocates a checkpoint's worth on every
// rotation and fails the byte bound.
func testRotationAllocs(t *testing.T) {
	prog := workloads.Hashy(100, 25)
	sw, err := trace.NewSegmentWriter(discardFS{}, vm.ProgramHash(prog), trace.SegmentOptions{RotateEvents: 24})
	if err != nil {
		t.Fatal(err)
	}
	j := &measuredJournal{SegmentWriter: sw}
	rr, err := replaycheck.RecordSink(prog, j, replaycheck.Options{Seed: 3, HostRand: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rr.RunErr != nil {
		t.Fatal(rr.RunErr)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if len(j.rot) < 11 {
		t.Fatalf("only %d rotations; the gate needs at least 11", len(j.rot))
	}
	past := j.rot[1:]
	var allocs uint64
	frac := make([]float64, len(past))
	for i, r := range past {
		allocs += r.mallocs
		frac[i] = float64(r.bytes) / float64(r.ckBytes)
	}
	sort.Float64s(frac)
	median := frac[len(frac)/2]
	perRotation := float64(allocs) / float64(len(past))
	t.Logf("%d rotations past the first: %.1f allocs per rotation; bytes allocated per checkpoint byte: median %.4f, max %.4f",
		len(past), perRotation, median, frac[len(frac)-1])
	if median > 0.10 {
		t.Errorf("the median rotation allocates %.1f%% of its checkpoint's size, want under 10%%", 100*median)
	}
	if perRotation > 40 {
		t.Errorf("a rotation makes %.1f allocations, want at most 40", perRotation)
	}
}

// measuredJournal is a segmented journal that samples the process's
// allocation counters around each rotation: from the RotatePending that
// asks for it, before the VM encodes its checkpoint, to the end of
// Rotate.
type measuredJournal struct {
	*trace.SegmentWriter
	ms  runtime.MemStats
	rot []rotationCost
}

type rotationCost struct {
	mallocs, bytes uint64
	ckBytes        int
}

func (j *measuredJournal) RotatePending() bool {
	if !j.SegmentWriter.RotatePending() {
		return false
	}
	runtime.ReadMemStats(&j.ms)
	j.rot = append(j.rot, rotationCost{mallocs: j.ms.Mallocs, bytes: j.ms.TotalAlloc})
	return true
}

func (j *measuredJournal) Rotate(state []byte, vmEvents, boundaryNYP uint64) error {
	err := j.SegmentWriter.Rotate(state, vmEvents, boundaryNYP)
	runtime.ReadMemStats(&j.ms)
	r := &j.rot[len(j.rot)-1]
	r.mallocs = j.ms.Mallocs - r.mallocs
	r.bytes = j.ms.TotalAlloc - r.bytes
	r.ckBytes = len(state)
	return err
}

// discardFS is a journal filesystem that keeps no bytes.
type discardFS struct{}

func (discardFS) Create(name string) (trace.File, error) { return discardFile{}, nil }
func (discardFS) Open(name string) (io.ReadCloser, error) {
	return nil, errors.New("discardFS keeps no files")
}
func (discardFS) Rename(oldname, newname string) error { return nil }
func (discardFS) List() ([]string, error)              { return nil, nil }
func (discardFS) Remove(name string) error             { return nil }

type discardFile struct{}

func (discardFile) Write(p []byte) (int, error) { return len(p), nil }
func (discardFile) Sync() error                 { return nil }
func (discardFile) Close() error                { return nil }
