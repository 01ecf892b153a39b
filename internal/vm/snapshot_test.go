package vm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"dejavu/internal/bytecode"
	"dejavu/internal/core"
	"dejavu/internal/heap"
)

const snapSrc = `
program snap
class Main {
  static n
  method worker 1 2 {
    iconst 0
    store 1
  loop:
    load 1
    iconst 300
    cmpge
    jnz out
    gets Main.n
    load 0
    add
    puts Main.n
    load 1
    iconst 1
    add
    store 1
    jmp loop
  out:
    gets Main.n
    print
    ret
  }
  method main 0 0 {
    iconst 1
    spawn Main.worker
    pop
    iconst 2
    spawn Main.worker
    pop
    ret
  }
}
entry Main.main
`

// replaying builds a replaying VM for snapSrc.
func replaying(t *testing.T) *VM {
	t.Helper()
	prog := bytecode.MustAssemble(snapSrc)
	ecfg := core.DefaultConfig(core.ModeRecord)
	ecfg.ProgHash = ProgramHash(prog)
	ecfg.Preempt = core.NewSeededPreemptor(11, 3, 20)
	ecfg.Time = &core.FakeTime{Base: 1000, Step: 3}
	eng, err := core.NewEngine(ecfg)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := New(prog, Config{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Run(); err != nil {
		t.Fatal(err)
	}
	tr := eng.End()

	rcfg := core.DefaultConfig(core.ModeReplay)
	rcfg.ProgHash = ProgramHash(prog)
	rcfg.TraceIn = tr
	reng, err := core.NewEngine(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(prog, Config{Engine: reng})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSnapshotRestoreMidReplay(t *testing.T) {
	m := replaying(t)
	for i := 0; i < 1000; i++ {
		if done, err := m.Step(); done || err != nil {
			t.Fatalf("early stop: %v", err)
		}
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Events() != 1000 {
		t.Fatalf("snapshot at %d", snap.Events())
	}
	if snap.SnapshotBytes() == 0 {
		t.Fatal("zero snapshot footprint")
	}

	// Run to completion, remember the outcome.
	for {
		done, err := m.Step()
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
	}
	finalOut := append([]byte(nil), m.Output()...)
	finalEvents := m.Events()

	// Restore and re-run: identical outcome (deterministic replay).
	if err := m.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if m.Events() != 1000 || m.Halted() {
		t.Fatalf("restore state: events=%d halted=%v", m.Events(), m.Halted())
	}
	for {
		done, err := m.Step()
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
	}
	if !bytes.Equal(m.Output(), finalOut) {
		t.Fatalf("re-run output differs:\n%q\n%q", m.Output(), finalOut)
	}
	if m.Events() != finalEvents {
		t.Fatalf("re-run events %d != %d", m.Events(), finalEvents)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	m := replaying(t)
	for i := 0; i < 500; i++ {
		m.Step()
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	h1, u1 := heapFingerprint(m), m.Heap().Used()
	// Mutate heavily after the snapshot.
	for i := 0; i < 5000; i++ {
		if done, _ := m.Step(); done {
			break
		}
	}
	if err := m.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if heapFingerprint(m) != h1 || m.Heap().Used() != u1 {
		t.Fatal("restore did not reproduce the heap image")
	}
	// Restoring twice from the same snapshot must work (no aliasing).
	for i := 0; i < 100; i++ {
		m.Step()
	}
	if err := m.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if heapFingerprint(m) != h1 {
		t.Fatal("second restore corrupted by first")
	}
}

func TestSnapshotRejectsNested(t *testing.T) {
	m := replaying(t)
	m.nestedDepth = 1
	if _, err := m.Snapshot(); err != ErrNestedSnapshot {
		t.Fatalf("err = %v", err)
	}
	if err := m.Restore(&Snapshot{}); err != ErrNestedSnapshot {
		t.Fatalf("err = %v", err)
	}
	m.nestedDepth = 0
}

func TestSnapshotInOffMode(t *testing.T) {
	// Off-mode snapshots carry no engine state but still restore the VM.
	prog := bytecode.MustAssemble(snapSrc)
	m, err := New(prog, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		m.Step()
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		m.Step()
	}
	if err := m.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if m.Events() != 200 {
		t.Fatalf("restored to %d events", m.Events())
	}
}

func TestVerifyProgramAPI(t *testing.T) {
	prog := bytecode.MustAssemble(snapSrc)
	facts, err := VerifyProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(facts) != len(prog.Methods) {
		t.Fatal("facts count")
	}
	bad := bytecode.MustAssemble(`
program bad
class Main {
  method main 0 0 {
    native "warpdrive" 0
    pop
    halt
  }
}
entry Main.main
`)
	if _, err := VerifyProgram(bad); err == nil || !strings.Contains(err.Error(), "unknown native") {
		t.Fatalf("expected unknown native, got %v", err)
	}
}

// TestCheckpointFileRoundTrip: serialize a mid-replay snapshot, build a
// FRESH VM in a "new process", restore the bytes, and run to completion —
// the outcome matches the original run exactly.
func TestCheckpointFileRoundTrip(t *testing.T) {
	prog := bytecode.MustAssemble(snapSrc)

	// Record once.
	ecfg := core.DefaultConfig(core.ModeRecord)
	ecfg.ProgHash = ProgramHash(prog)
	ecfg.Preempt = core.NewSeededPreemptor(11, 3, 20)
	ecfg.Time = &core.FakeTime{Base: 1000, Step: 3}
	eng, _ := core.NewEngine(ecfg)
	rec, err := New(prog, Config{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Run(); err != nil {
		t.Fatal(err)
	}
	tr := eng.End()

	newReplay := func() *VM {
		rcfg := core.DefaultConfig(core.ModeReplay)
		rcfg.ProgHash = ProgramHash(prog)
		rcfg.TraceIn = tr
		reng, err := core.NewEngine(rcfg)
		if err != nil {
			t.Fatal(err)
		}
		m, err := New(prog, Config{Engine: reng})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	// First session: replay to event 800, checkpoint to bytes, finish.
	m1 := newReplay()
	for i := 0; i < 800; i++ {
		if done, err := m1.Step(); done || err != nil {
			t.Fatalf("early stop: %v", err)
		}
	}
	blob, err := m1.AppendCheckpoint(nil)
	if err != nil {
		t.Fatal(err)
	}
	for {
		done, err := m1.Step()
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
	}

	// Second session ("new process"): fresh VM + RestoreBytes.
	m2 := newReplay()
	if err := m2.RestoreBytes(blob); err != nil {
		t.Fatal(err)
	}
	if m2.Events() != 800 {
		t.Fatalf("restored to event %d", m2.Events())
	}
	for {
		done, err := m2.Step()
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
	}
	if string(m2.Output()) != string(m1.Output()) {
		t.Fatalf("outputs differ:\n%q\n%q", m2.Output(), m1.Output())
	}
	if m2.Events() != m1.Events() {
		t.Fatalf("events %d vs %d", m2.Events(), m1.Events())
	}
	if heapFingerprint(m2) != heapFingerprint(m1) {
		t.Fatal("final heaps differ")
	}
}

func TestCheckpointRejections(t *testing.T) {
	prog := bytecode.MustAssemble(snapSrc)
	m, err := New(prog, Config{HeapBytes: 16 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		m.Step()
	}
	blob, _ := m.AppendCheckpoint(nil)

	// Wrong magic / truncation / wrong program.
	if err := m.RestoreBytes([]byte("XXXXXXXXXXXX")); err == nil {
		t.Fatal("bad magic accepted")
	}
	if err := m.RestoreBytes(blob[:len(blob)/2]); err == nil {
		t.Fatal("truncated checkpoint accepted")
	}
	other, err := New(bytecode.MustAssemble(`
program other
class Main {
  method main 0 0 {
    halt
  }
}
entry Main.main
`), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := other.RestoreBytes(blob); err == nil {
		t.Fatal("cross-program checkpoint accepted")
	}
	// Byte-flip robustness: corruption must error or restore consistently,
	// never panic.
	victim, _ := New(prog, Config{HeapBytes: 16 * 1024})
	for i := 12; i < len(blob); i += 61 {
		mut := append([]byte(nil), blob...)
		mut[i] ^= 0x41
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("RestoreBytes panicked with byte %d flipped: %v", i, r)
				}
			}()
			_ = victim.RestoreBytes(mut)
		}()
	}
	// The clean blob still works after all that.
	fresh, _ := New(prog, Config{HeapBytes: 16 * 1024})
	if err := fresh.RestoreBytes(blob); err != nil {
		t.Fatal(err)
	}
	if fresh.Events() != 100 {
		t.Fatalf("restored to %d", fresh.Events())
	}
}

// TestCheckpointHeapGeometryRefusals crafts the heap section of a real
// checkpoint, one row per geometry RestoreBytes must refuse before it
// allocates anything for the heap.
func TestCheckpointHeapGeometryRefusals(t *testing.T) {
	prog := bytecode.MustAssemble(snapSrc)
	m, err := New(prog, Config{HeapBytes: 16 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		m.Step()
	}
	blob, _ := m.AppendCheckpoint(nil)
	hs, rest, err := heap.DecodeSnapshot(blob[12:])
	if err != nil {
		t.Fatal(err)
	}
	semi, base, alloc, image := uint64(hs.Semi), uint64(hs.Base), uint64(hs.Alloc), hs.Image
	full := make([]byte, 2*semi) // the two-semispace image older checkpoints carried
	copy(full[base:], image)

	craft := func(semi, base, alloc uint64, image []byte) []byte {
		b := append([]byte(nil), blob[:12]...)
		for _, v := range []uint64{semi, base, alloc, uint64(len(image))} {
			b = binary.AppendUvarint(b, v)
		}
		return append(append(b, image...), rest...)
	}
	if err := m.RestoreBytes(craft(semi, base, alloc, image)); err != nil {
		t.Fatalf("crafted copy of a valid checkpoint refused: %v", err)
	}
	for _, tc := range []struct {
		name   string
		data   []byte
		malfmt bool // refused by the heap decoder, not by the VM's limit
	}{
		{"base not a semispace start", craft(semi, base+8, alloc+8, image), true},
		{"alloc below base+8", craft(semi, base, base, nil), true},
		{"alloc past the semispace", craft(semi, base, base+semi+8, make([]byte, semi+8)), true},
		{"alloc not word-aligned", craft(semi, base, alloc-1, image[:len(image)-1]), true},
		{"image shorter than alloc-base", craft(semi, base, alloc, image[:len(image)-8]), true},
		{"full two-semispace image", craft(semi, base, alloc, full), true},
		{"semispace below one page", craft(2048, 0, alloc, image), true},
		{"image truncated", craft(semi, base, alloc, image)[:12+len(image)/2], true},
		{"heap beyond MaxHeapBytes", craft(1<<28, 0, alloc-base, image), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fresh, err := New(prog, Config{HeapBytes: 16 * 1024})
			if err != nil {
				t.Fatal(err)
			}
			err = fresh.RestoreBytes(tc.data)
			if !errors.Is(err, ErrCheckpointRefused) {
				t.Fatalf("RestoreBytes = %v, want ErrCheckpointRefused", err)
			}
			if errors.Is(err, heap.ErrSnapshot) != tc.malfmt {
				t.Fatalf("RestoreBytes = %v; heap.ErrSnapshot expected: %v", err, tc.malfmt)
			}
			if fresh.Events() != 0 {
				t.Fatalf("refused checkpoint moved the VM to event %d", fresh.Events())
			}
		})
	}
}
