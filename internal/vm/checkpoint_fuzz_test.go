package vm

import (
	"testing"

	"dejavu/internal/bytecode"
	"dejavu/internal/core"
	"dejavu/internal/workloads"
)

// Restoring VMs run under these limits: a checkpoint whose heap needs more
// than fuzzMaxHeap must be refused, and fuzzMaxEvents bounds the run that
// follows a successful restore.
const (
	fuzzMaxHeap   = 1 << 21
	fuzzMaxEvents = 1 << 14
)

// fuzzVM builds the recording VM both sides of FuzzRestoreBytes use: a
// fixed preemption seed and a fake clock, so a restored run is
// deterministic.
func fuzzVM(t testing.TB, prog *bytecode.Program) *VM {
	t.Helper()
	ecfg := core.DefaultConfig(core.ModeRecord)
	ecfg.ProgHash = ProgramHash(prog)
	ecfg.Preempt = core.NewSeededPreemptor(3, 2, 12)
	ecfg.Time = &core.FakeTime{Base: 1000, Step: 3}
	eng, err := core.NewEngine(ecfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(prog, Config{Engine: eng, HeapBytes: 1 << 16, MaxHeapBytes: fuzzMaxHeap,
		MaxEvents: fuzzMaxEvents, IdleSleep: 1})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// FuzzRestoreBytes feeds mutated checkpoints of the workload corpus to a
// fresh VM of the same program. RestoreBytes must refuse the input with
// an error, or restore a heap within MaxHeapBytes and leave a VM that
// runs to a RunUntil stop, to completion or to an error. Nothing may
// panic.
func FuzzRestoreBytes(f *testing.F) {
	names := workloads.Names()
	progs := make([]*bytecode.Program, len(names))
	for i, name := range names {
		progs[i] = workloads.Registry[name]()
		m := fuzzVM(f, progs[i])
		for _, stop := range []int{1, 2000} {
			for m.Events() < uint64(stop) {
				if done, err := m.Step(); done || err != nil {
					break
				}
			}
			snap, err := m.Snapshot()
			if err != nil {
				f.Fatal(err)
			}
			f.Add(uint8(i), snap.Encode(m.Hash()))
		}
	}
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		m := fuzzVM(t, progs[int(which)%len(progs)])
		if err := m.RestoreBytes(data); err != nil {
			return
		}
		if n := m.Heap().MemSize(); n > fuzzMaxHeap {
			t.Fatalf("restored a %d-byte heap past MaxHeapBytes %d", n, fuzzMaxHeap)
		}
		// Half the run stops at a RunUntil target and resumes: RunUntil
		// and Run both run under the corrupt-checkpoint containment.
		if done, _ := m.RunUntil(m.Events() + fuzzMaxEvents/2); !done {
			_ = m.Run()
		}
		if n := m.Heap().MemSize(); n > fuzzMaxHeap {
			t.Fatalf("ran to a %d-byte heap past MaxHeapBytes %d", n, fuzzMaxHeap)
		}
	})
}
