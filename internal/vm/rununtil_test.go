package vm

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"dejavu/internal/bytecode"
	"dejavu/internal/workloads"
)

// TestRunUntilStopsWhereStepLoopStops drives one recording VM through
// RunUntil legs of varying length and a twin through the Step loop that
// RunUntil replaces (Step while Events() < target). After every leg both
// must stand at the same event with the same output and the same encoded
// snapshot, and both must run into the MaxEvents budget at the same
// event with the same sticky error. A stop itself is not an error: the
// fast VM resumes from it leg after leg.
func TestRunUntilStopsWhereStepLoopStops(t *testing.T) {
	progs := map[string]func() *bytecode.Program{
		"hashy": func() *bytecode.Program { return workloads.Hashy(20, 25) },
	}
	for name, prog := range workloads.Registry {
		progs[name] = prog
	}
	strides := []uint64{1, 2, 3, 1, 5, 8, 13, 1, 21, 34, 55, 89, 144, 233, 377, 610, 987}
	for name, prog := range progs {
		t.Run(name, func(t *testing.T) {
			p := prog()
			fast, stepped := fuzzVM(t, p), fuzzVM(t, p)
			var ferr, serr error
			fdone := false
			for i := 0; !fdone; i++ {
				target := fast.Events() + strides[i%len(strides)]
				fdone, ferr = fast.RunUntil(target)
				for stepped.Events() < target {
					done, err := stepped.Step()
					if serr = err; done || err != nil {
						break
					}
				}
				what := fmt.Sprintf("leg %d to %d", i, target)
				if !fdone && fast.Events() < target {
					t.Fatalf("%s: stopped early at %d", what, fast.Events())
				}
				if fast.Events() != stepped.Events() {
					t.Fatalf("%s: RunUntil at %d, Step loop at %d", what, fast.Events(), stepped.Events())
				}
				if fmt.Sprint(ferr) != fmt.Sprint(serr) {
					t.Fatalf("%s: RunUntil err %v, Step loop err %v", what, ferr, serr)
				}
				if !bytes.Equal(fast.Output(), stepped.Output()) {
					t.Fatalf("%s: output diverged", what)
				}
				if ferr == nil {
					fs, err := fast.AppendCheckpoint(nil)
					if err != nil {
						t.Fatal(err)
					}
					ss, err := stepped.AppendCheckpoint(nil)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(fs, ss) {
						t.Fatalf("%s: encoded snapshot diverged at event %d", what, fast.Events())
					}
				}
			}
			if ferr != nil && !errors.Is(ferr, ErrEventBudget) {
				t.Fatalf("run failed: %v", ferr)
			}
			if again, err := fast.RunUntil(fast.Events() + 10); !again || err != ferr {
				t.Fatalf("RunUntil on a finished VM: done=%v err=%v, want true %v", again, err, ferr)
			}
		})
	}
}

// TestRunUntilPastTarget returns at once, without running, when the VM
// already stands at or past the target.
func TestRunUntilPastTarget(t *testing.T) {
	m := fuzzVM(t, workloads.Sieve(200))
	if done, err := m.RunUntil(40); done || err != nil {
		t.Fatalf("RunUntil(40): %v %v", done, err)
	}
	at := m.Events()
	for _, target := range []uint64{0, 40, at} {
		if done, err := m.RunUntil(target); done || err != nil || m.Events() != at {
			t.Fatalf("RunUntil(%d) at %d: done=%v err=%v, moved to %d", target, at, done, err, m.Events())
		}
	}
}
