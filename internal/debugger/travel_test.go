package debugger

// Travel oracle: TravelTo and breakpoint-free Continue run the VM through
// RunUntil and drop checkpoints on the way forward. After every travel
// they must leave the VM exactly where the Step-loop travel they replaced
// leaves it: same event count, same output, and the same encoded snapshot
// (heap image with its garbage, scheduler, engine position).

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"dejavu/internal/bytecode"
	"dejavu/internal/core"
	"dejavu/internal/replaycheck"
	"dejavu/internal/vm"
	"dejavu/internal/workloads"
)

// stepTravel is the Step-loop travel TravelTo used before it ran through
// RunUntil, kept as the oracle: it restores the nearest checkpoint at or
// before event (rewinds only), then Steps until Events() >= event or the
// program ends, and takes no checkpoints on the way.
func stepTravel(d *Debugger, event uint64) error {
	cur := d.VM.Events()
	if event > cur {
		for d.VM.Events() < event {
			done, err := d.VM.Step()
			if err != nil {
				return err
			}
			if done {
				return nil
			}
		}
		return nil
	}
	var best *vm.Snapshot
	for _, s := range d.checkpoints {
		if s.Events() <= event && (best == nil || s.Events() > best.Events()) {
			best = s
		}
	}
	if best == nil {
		return fmt.Errorf("no checkpoint at or before event %d", event)
	}
	if err := d.VM.Restore(best); err != nil {
		return err
	}
	for d.VM.Events() < event {
		done, err := d.VM.Step()
		if err != nil {
			return err
		}
		if done {
			break
		}
	}
	return nil
}

// travelCorpus is the workload registry plus the small hashy the
// cross-dispatch differentials add: its backedge yield points grow thread
// stacks, which leaves the deferred frame pc in the heap image.
func travelCorpus() map[string]func() *bytecode.Program {
	c := map[string]func() *bytecode.Program{
		"hashy": func() *bytecode.Program { return workloads.Hashy(20, 25) },
	}
	for name, prog := range workloads.Registry {
		c[name] = prog
	}
	return c
}

func sortedKeys(m map[string]func() *bytecode.Program) []string {
	out := make([]string, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// recording is one recorded run and a factory of VMs that replay it.
type recording struct {
	prog   *bytecode.Program
	trace  []byte
	events uint64
	output []byte
}

func record(t *testing.T, prog *bytecode.Program, name string, seed int64) *recording {
	t.Helper()
	o := replaycheck.Options{Seed: seed, HostRand: seed}
	if name == "sumlines" {
		o.Input = "5\n15\n22\n\n"
	}
	rec, err := replaycheck.Record(prog, o)
	if err != nil || rec.RunErr != nil {
		t.Fatalf("record %s seed %d: %v %v", name, seed, err, rec.RunErr)
	}
	return &recording{prog: prog, trace: rec.Trace, events: rec.Events, output: rec.Output}
}

// replayVM builds a fresh VM replaying the recording from event zero.
func (r *recording) replayVM(t *testing.T) *vm.VM {
	t.Helper()
	ecfg := core.DefaultConfig(core.ModeReplay)
	ecfg.ProgHash = vm.ProgramHash(r.prog)
	ecfg.TraceIn = r.trace
	eng, err := core.NewEngine(ecfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := vm.New(r.prog, vm.Config{Engine: eng, IdleSleep: 1})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// session builds a debugger over a fresh replay with the in-memory anchor
// a journal session takes at its seed point.
func (r *recording) session(t *testing.T, every uint64) *Debugger {
	t.Helper()
	d := New(r.replayVM(t))
	d.CheckpointEvery = every
	d.maybeCheckpoint()
	return d
}

// encoded is the VM's full checkpoint encoding.
func encoded(t *testing.T, m *vm.VM) []byte {
	t.Helper()
	s, err := m.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	return s.Encode(m.Hash())
}

// sameVM fails unless got matches the Step-loop reference want in event
// count, output and encoded snapshot.
func sameVM(t *testing.T, what string, got, want *vm.VM) {
	t.Helper()
	if g, w := got.Events(), want.Events(); g != w {
		t.Fatalf("%s: landed at event %d, Step loop at %d", what, g, w)
	}
	if !bytes.Equal(got.Output(), want.Output()) {
		t.Fatalf("%s: output diverged at event %d:\n%q\n%q", what, got.Events(), got.Output(), want.Output())
	}
	if !bytes.Equal(encoded(t, got), encoded(t, want)) {
		t.Fatalf("%s: encoded snapshot diverged at event %d", what, got.Events())
	}
}

// travelTargets draws n targets that mix backward, forward, repeated and
// end-of-trace travel.
func travelTargets(rng *rand.Rand, total uint64, n int) []uint64 {
	out := make([]uint64, 0, n)
	cur := uint64(0)
	for len(out) < n {
		var tgt uint64
		switch k := rng.Intn(10); {
		case k < 4 && cur > 0: // backward
			tgt = uint64(rng.Int63n(int64(cur) + 1))
		case k < 7 && cur < total: // forward
			tgt = cur + 1 + uint64(rng.Int63n(int64(total-cur)))
		case k == 7 && len(out) > 0: // repeated
			tgt = out[len(out)-1]
		case k == 8: // the last event
			tgt = total
		default: // past the end
			tgt = total + 1 + uint64(rng.Intn(50))
		}
		out = append(out, tgt)
		cur = min(tgt, total)
	}
	return out
}

// TestTravelOracle: for corpus x seeds x random target sequences, a
// RunUntil-driven TravelTo lands exactly where the Step-loop travel does.
func TestTravelOracle(t *testing.T) {
	corpus := travelCorpus()
	for _, name := range sortedKeys(corpus) {
		for _, seed := range []int64{1, 4, 9} {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				r := record(t, corpus[name](), name, seed)
				// About eight legs per full replay, so travel restores from
				// checkpoints it dropped itself.
				every := max(r.events/8, 1)
				fast, ref := r.session(t, every), r.session(t, every)
				rng := rand.New(rand.NewSource(seed*7919 + int64(len(name))))
				for i, tgt := range travelTargets(rng, r.events, 24) {
					if err := fast.TravelTo(tgt); err != nil {
						t.Fatalf("travel %d to %d: %v", i, tgt, err)
					}
					if err := stepTravel(ref, tgt); err != nil {
						t.Fatalf("step travel %d to %d: %v", i, tgt, err)
					}
					sameVM(t, fmt.Sprintf("travel %d to %d", i, tgt), fast.VM, ref.VM)
				}
				if len(fast.checkpoints) < 2 {
					t.Fatalf("forward travel left %d checkpoints, want periodic ones", len(fast.checkpoints))
				}
			})
		}
	}
}

// firstEvent replays r one Step at a time and returns the event count at
// the first outer instruction boundary where hit holds.
func firstEvent(t *testing.T, r *recording, hit func(m *vm.VM) bool) (uint64, bool) {
	t.Helper()
	m := r.replayVM(t)
	for {
		if done, err := m.EnsureDispatched(); done || err != nil {
			return 0, false
		}
		if hit(m) {
			return m.Events(), true
		}
		if done, err := m.Step(); done || err != nil {
			return 0, false
		}
	}
}

// TestTravelIntoFusedPair: a target one event into a fused pair must not
// stop Run between the pair's components; it lands on the boundary the
// Step loop lands on, forward from a checkpoint and backward after
// running past it.
func TestTravelIntoFusedPair(t *testing.T) {
	for _, c := range []struct {
		name string
		tok  bytecode.Token
	}{{"hashy", bytecode.TokCmpJz}, {"bank", bytecode.TokLoadArith}} {
		t.Run(c.name, func(t *testing.T) {
			prog := travelCorpus()[c.name]()
			r := record(t, prog, c.name, 1)
			fused := bytecode.DecodeProgram(prog, true)
			// Skip the first occurrences: the pair must run fused, deep
			// inside a slice of the fast loop.
			seen := 0
			head, ok := firstEvent(t, r, func(m *vm.VM) bool {
				_, mid, pc, ok := m.CurrentSite()
				if ok && fused.Methods[mid].Code[pc].Tok == c.tok {
					seen++
				}
				return seen == 20
			})
			if !ok {
				t.Fatalf("no %v pair executes in %s", c.tok, c.name)
			}
			fast, ref := r.session(t, 10_000), r.session(t, 10_000)
			for _, tgt := range []uint64{head + 1, head + 1, head + 40, head + 1} {
				if err := fast.TravelTo(tgt); err != nil {
					t.Fatal(err)
				}
				if err := stepTravel(ref, tgt); err != nil {
					t.Fatal(err)
				}
				sameVM(t, fmt.Sprintf("travel to %d (pair head at %d)", tgt, head), fast.VM, ref.VM)
			}
			if got := fast.VM.Events(); got != head+1 {
				t.Fatalf("landed at %d, want %d: one event into the pair", got, head+1)
			}
		})
	}
}

// TestTravelIntoNativeCallback: a target inside the events a native's
// nested callbacks log lands after the native, where the Step loop lands.
func TestTravelIntoNativeCallback(t *testing.T) {
	for _, seed := range []int64{1, 4} {
		t.Run(fmt.Sprintf("events/seed%d", seed), func(t *testing.T) {
			r := record(t, workloads.Registry["events"](), "events", seed)
			// The first outer instruction that logs several events is a
			// native running program callbacks.
			m := r.replayVM(t)
			var start, width uint64
			for width <= 2 {
				start = m.Events()
				if done, err := m.Step(); done || err != nil {
					t.Fatalf("events runs no native callback: %v", err)
				}
				width = m.Events() - start
			}
			fast, ref := r.session(t, 10_000), r.session(t, 10_000)
			for _, tgt := range []uint64{start + 2, start + width - 1, start + 2} {
				if err := fast.TravelTo(tgt); err != nil {
					t.Fatal(err)
				}
				if err := stepTravel(ref, tgt); err != nil {
					t.Fatal(err)
				}
				sameVM(t, fmt.Sprintf("travel to %d (callback at %d..%d)", tgt, start, start+width), fast.VM, ref.VM)
				if got := fast.VM.Events(); got != start+width {
					t.Fatalf("landed at %d, want %d: after the native", got, start+width)
				}
			}
		})
	}
}

// TestTravelFromRestoredBytes: a VM seeded by RestoreBytes (as a journal
// session seeds from a durable checkpoint) runs RunUntil under the
// corrupt-checkpoint containment and still travels like the Step loop.
func TestTravelFromRestoredBytes(t *testing.T) {
	r := record(t, workloads.Bank(4, 8, 500), "bank", 4)
	ref := r.session(t, 5_000)
	seedAt := r.events / 3
	if err := stepTravel(ref, seedAt); err != nil {
		t.Fatal(err)
	}
	m := r.replayVM(t)
	if err := m.RestoreBytes(encoded(t, ref.VM)); err != nil {
		t.Fatal(err)
	}
	fast := New(m)
	fast.CheckpointEvery = 5_000
	fast.maybeCheckpoint()
	ref.maybeCheckpoint() // both anchored at the seed point
	for _, tgt := range []uint64{seedAt + 17, r.events - 3, seedAt + 9_000, seedAt, r.events + 5} {
		if err := fast.TravelTo(tgt); err != nil {
			t.Fatal(err)
		}
		if err := stepTravel(ref, tgt); err != nil {
			t.Fatal(err)
		}
		sameVM(t, fmt.Sprintf("travel to %d", tgt), fast.VM, ref.VM)
	}
}

// TestContinueWithoutBreakpoints: Continue with no breakpoint set runs at
// Run speed to the end, lands where a Step loop does, and leaves the
// periodic checkpoints a later TravelTo restores from.
func TestContinueWithoutBreakpoints(t *testing.T) {
	for _, name := range []string{"bank", "hashy", "events"} {
		t.Run(name, func(t *testing.T) {
			r := record(t, travelCorpus()[name](), name, 9)
			every := max(r.events/6, 1)
			d := r.session(t, every)
			reason, err := d.Continue()
			if err != nil || reason != StopHalted {
				t.Fatalf("Continue: %v %v", reason, err)
			}
			ref := r.replayVM(t)
			for {
				done, err := ref.Step()
				if err != nil {
					t.Fatal(err)
				}
				if done {
					break
				}
			}
			sameVM(t, "continue", d.VM, ref)
			if !bytes.Equal(d.VM.Output(), r.output) {
				t.Fatalf("output differs from the recording:\n%q\n%q", d.VM.Output(), r.output)
			}
			if len(d.checkpoints) < 4 {
				t.Fatalf("Continue left %d checkpoints, want one every %d events", len(d.checkpoints), every)
			}
			// A rewind restores the nearest checkpoint Continue dropped,
			// not the anchor at event zero.
			tgt := r.events / 2
			var from uint64
			for _, s := range d.checkpoints {
				if s.Events() <= tgt {
					from = s.Events()
				}
			}
			if from == 0 {
				t.Fatalf("no checkpoint in (0, %d]", tgt)
			}
			if err := d.TravelTo(tgt); err != nil {
				t.Fatal(err)
			}
			back := r.session(t, every)
			if err := stepTravel(back, tgt); err != nil {
				t.Fatal(err)
			}
			sameVM(t, fmt.Sprintf("travel to %d from checkpoint %d", tgt, from), d.VM, back.VM)
		})
	}
}
