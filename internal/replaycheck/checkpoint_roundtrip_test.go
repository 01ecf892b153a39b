package replaycheck_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"dejavu/internal/bytecode"
	"dejavu/internal/core"
	"dejavu/internal/replaycheck"
	"dejavu/internal/vm"
)

// roundTripEvery is the event spacing of the live-encoder round trips: a
// prime, so the checkpoints land at many different points of the
// workloads' loops.
const roundTripEvery = 997

// TestCheckpointLiveRoundTrip steps a record VM and then a replay VM of
// its trace over the corpus (seeds 1, 4, 9) plus a small hashy. Every
// roundTripEvery events, and at the end, it encodes the live VM
// (AppendCheckpoint), restores the bytes into a freshly built VM of the
// same mode and encodes that one. The two encodings must be equal, so
// the encoder writes every field RestoreBytes reads and reads back every
// field it writes; an in-memory Snapshot taken at the same point must
// encode to the same bytes. Inside a native callback (events) the encoder
// must refuse with ErrNestedSnapshot and leave the buffer as it was.
func TestCheckpointLiveRoundTrip(t *testing.T) {
	for _, name := range crossNames() {
		for _, seed := range []int64{1, 4, 9} {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				prog := crossCorpus[name]()
				hash := vm.ProgramHash(prog)
				o := optsFor(name, seed)
				var probe *nestedProbe
				if name == "events" {
					cb, ok := prog.MethodByName("Main.onEvent")
					if !ok {
						t.Fatal("events has no Main.onEvent")
					}
					probe = &nestedProbe{method: cb.ID}
					o.TweakVM = func(cfg *vm.Config) {
						probe.Observer = cfg.Observer
						cfg.Observer = probe
					}
				}
				fresh := func(mode core.Mode, traceBytes []byte) *vm.VM {
					ecfg := core.DefaultConfig(mode)
					ecfg.ProgHash = hash
					ecfg.TraceIn = traceBytes
					eng, err := core.NewEngine(ecfg)
					if err != nil {
						t.Fatal(err)
					}
					m, err := vm.New(prog, vm.Config{Engine: eng, HeapBytes: o.HeapBytes})
					if err != nil {
						t.Fatal(err)
					}
					return m
				}

				var rec *replaycheck.Result
				checks := roundTrips(t, probe, func() *vm.VM { return fresh(core.ModeRecord, nil) }, func() {
					var err error
					if rec, err = replaycheck.Record(prog, o); err != nil {
						t.Fatalf("record: %v", err)
					}
					if rec.RunErr != nil {
						t.Fatalf("record: %v", rec.RunErr)
					}
				})
				checks += roundTrips(t, probe, func() *vm.VM { return fresh(core.ModeReplay, rec.Trace) }, func() {
					rep, err := replaycheck.Replay(prog, rec.Trace, o)
					if err != nil {
						t.Fatalf("replay: %v", err)
					}
					if rep.RunErr != nil {
						t.Fatalf("replay: %v", rep.RunErr)
					}
				})
				if want := 2 * (1 + int(rec.Events/roundTripEvery)); checks < want {
					t.Fatalf("%d round trips over %d events, want at least %d", checks, rec.Events, want)
				}
				if probe != nil && probe.refused == 0 {
					t.Fatal("no checkpoint was attempted inside a native callback")
				}
			})
		}
	}
}

// roundTrips runs run with every VM it starts stepped by a loop that does
// a round trip into a VM from fresh each roundTripEvery events and at the
// end, and returns how many it did.
func roundTrips(t *testing.T, probe *nestedProbe, fresh func() *vm.VM, run func()) int {
	t.Helper()
	checks := 0
	roundTrip := func(m *vm.VM) error {
		checks++
		live, err := m.AppendCheckpoint(nil)
		if err != nil {
			return fmt.Errorf("encode at event %d: %w", m.Events(), err)
		}
		snap, err := m.Snapshot()
		if err != nil {
			return fmt.Errorf("snapshot at event %d: %w", m.Events(), err)
		}
		if !bytes.Equal(snap.Encode(m.Hash()), live) {
			return fmt.Errorf("event %d: the in-memory snapshot encodes to other bytes", m.Events())
		}
		back := fresh()
		if err := back.RestoreBytes(live); err != nil {
			return fmt.Errorf("restore at event %d: %w", m.Events(), err)
		}
		again, err := back.AppendCheckpoint(nil)
		if err != nil {
			return fmt.Errorf("re-encode at event %d: %w", m.Events(), err)
		}
		if !bytes.Equal(live, again) {
			return fmt.Errorf("event %d: restored VM encodes to other bytes (%d vs %d)",
				m.Events(), len(again), len(live))
		}
		return nil
	}
	defer replaycheck.UseDriver(func(m *vm.VM) error {
		if probe != nil {
			probe.m = m
		}
		next := uint64(roundTripEvery)
		for {
			if m.Events() >= next {
				next = m.Events() + roundTripEvery
				if err := roundTrip(m); err != nil {
					return err
				}
			}
			done, err := m.Step()
			if probe != nil && probe.err != nil {
				return probe.err
			}
			if err != nil {
				return err
			}
			if done {
				return roundTrip(m) // the final state too
			}
		}
	})()
	run()
	return checks
}

// nestedProbe observes a run's steps for its Observer and, at every
// instruction of a callback-only method, asks the VM for a checkpoint,
// which must be refused.
type nestedProbe struct {
	vm.Observer
	m       *vm.VM
	method  int
	refused int
	err     error
}

func (p *nestedProbe) OnStep(threadID, methodID, pc int, op bytecode.Opcode) {
	p.Observer.OnStep(threadID, methodID, pc, op)
	if methodID != p.method || p.m == nil || p.err != nil {
		return
	}
	out, err := p.m.AppendCheckpoint([]byte("kept"))
	if !errors.Is(err, vm.ErrNestedSnapshot) || string(out) != "kept" {
		p.err = fmt.Errorf("checkpoint inside a callback at pc %d: %v, buffer %q", pc, err, out)
		return
	}
	p.refused++
}
