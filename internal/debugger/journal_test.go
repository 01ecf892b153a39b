package debugger

import (
	"strings"
	"testing"

	"dejavu/internal/bytecode"
	"dejavu/internal/faults/memfs"
	"dejavu/internal/replaycheck"
	"dejavu/internal/trace"
	"dejavu/internal/vm"
	"dejavu/internal/workloads"
)

// journalFixture records the events workload into a multi-segment journal
// on an in-memory filesystem and opens a debugger over it at event zero.
func journalFixture(t *testing.T) (*bytecode.Program, trace.FS, *Debugger) {
	t.Helper()
	prog := workloads.Events(12)
	fs := memfs.New()
	rec, err := replaycheck.RecordJournal(prog, fs, replaycheck.Options{
		Seed: 11, HostRand: 11, KeepEvents: 1 << 20,
		ChunkBytes: 24, RotateEvents: 8,
		PreemptMin: 2, PreemptMax: 9,
	})
	if err != nil || rec.RunErr != nil {
		t.Fatalf("record journal: %v / %v", err, rec.RunErr)
	}
	s, err := OpenJournal(mustImage(t, prog), fs, 0, nil)
	if err != nil {
		t.Fatalf("open session: %v", err)
	}
	if n := len(s.Journal().Manifest.Checkpoints); n < 2 {
		t.Fatalf("want several durable checkpoints, got %d", n)
	}
	return prog, fs, s
}

// TestJournalSessionDurableCheckpointMatchesInMemory is the satellite
// acceptance bar: a debugger restored from a durable segment checkpoint
// must present exactly the same stacks, threads, and heap summary at a
// target event as one that traveled there through in-memory checkpoints.
func TestJournalSessionDurableCheckpointMatchesInMemory(t *testing.T) {
	prog, fs, s := journalFixture(t)
	cks := s.Journal().Manifest.Checkpoints
	mid := cks[len(cks)/2]
	target := mid.VMEvents + 7

	// Reference path: in-session travel from the zero anchor (in-memory
	// checkpoint restore + forward run).
	if err := s.TravelTo(target); err != nil {
		t.Fatalf("in-memory travel: %v", err)
	}
	refStack, err := s.StackTrace(0)
	if err != nil {
		t.Fatalf("stack: %v", err)
	}
	refHeap, err := s.HeapSummary()
	if err != nil {
		t.Fatalf("heap: %v", err)
	}
	refThreads, err := s.ThreadList()
	if err != nil {
		t.Fatalf("threads: %v", err)
	}

	// Durable path: a fresh debugger opened at the segment checkpoint
	// before the target restores it, replaying nothing before it.
	ck := mid
	d, err := OpenJournal(mustImage(t, prog), fs, ck.VMEvents, nil)
	if err != nil {
		t.Fatalf("seed from checkpoint %d: %v", ck.Index, err)
	}
	if got := d.VM.Events(); got != ck.VMEvents || d.Reseeds() != 1 {
		t.Fatalf("seeded debugger starts at %d after %d durable restores, checkpoint promises %d after one", got, d.Reseeds(), ck.VMEvents)
	}
	if err := d.TravelTo(target); err != nil {
		t.Fatalf("seeded travel: %v", err)
	}
	// A single VM step can log several events (native brackets), so travel
	// can overshoot the target by a step — but both paths replay the same
	// deterministic instruction stream, so they overshoot identically.
	if d.VM.Events() != s.VM.Events() {
		t.Fatalf("seeded debugger at %d, in-memory path at %d", d.VM.Events(), s.VM.Events())
	}
	if got, _ := d.StackTrace(0); got != refStack {
		t.Fatalf("stacks differ:\nseeded:\n%s\nin-memory:\n%s", got, refStack)
	}
	if got, _ := d.HeapSummary(); got != refHeap {
		t.Fatalf("heap summaries differ:\nseeded:\n%s\nin-memory:\n%s", got, refHeap)
	}
	if got, _ := d.ThreadList(); got != refThreads {
		t.Fatalf("thread lists differ:\nseeded:\n%s\nin-memory:\n%s", got, refThreads)
	}
}

// TestJournalSessionReSeedsPastInMemoryHorizon drives the public TravelTo:
// a session attached deep into the recording, asked to rewind before the
// first durable checkpoint, restores its anchor at event zero into the
// same VM and lands on the right state.
func TestJournalSessionReSeedsPastInMemoryHorizon(t *testing.T) {
	prog, fs, ref := journalFixture(t)
	cks := ref.Journal().Manifest.Checkpoints
	last := cks[len(cks)-1]

	s, err := OpenJournal(mustImage(t, prog), fs, last.VMEvents+5, nil)
	if err != nil {
		t.Fatalf("open at %d: %v", last.VMEvents+5, err)
	}
	if got := s.VM.Events(); got < last.VMEvents+5 {
		t.Fatalf("session at %d, want at least %d", got, last.VMEvents+5)
	}
	early := uint64(10)
	before := s.VM
	if err := s.TravelTo(early); err != nil {
		t.Fatalf("rewinding travel: %v", err)
	}
	if s.VM != before {
		t.Fatal("travel before the open position replaced the VM")
	}
	// One step can log many events (a native executes its callbacks
	// nested), so travel lands at the first step boundary at or after the
	// target — but it must have rewound below the first durable checkpoint.
	if got := s.VM.Events(); got < early || got >= cks[0].VMEvents {
		t.Fatalf("session at %d, want >= %d and before checkpoint 1 at %d", got, early, cks[0].VMEvents)
	}
	if stack, err := s.StackTrace(0); err != nil || !strings.Contains(stack, "Main.") {
		t.Fatalf("stack after rewind: %v\n%s", err, stack)
	}

	// The rewound session must match a from-zero debugger advanced to the
	// same point, and stays a full debugger: forward travel works.
	if err := ref.TravelTo(s.VM.Events()); err != nil {
		t.Fatalf("reference travel: %v", err)
	}
	a, _ := s.StackTrace(0)
	b, _ := ref.StackTrace(0)
	if a != b {
		t.Fatalf("rewound stack differs from reference:\n%s\nvs\n%s", a, b)
	}
	cur := s.VM.Events()
	if err := s.TravelTo(cur + 40); err != nil {
		t.Fatalf("forward travel after rewind: %v", err)
	}
	if got := s.VM.Events(); got < cur+40 {
		t.Fatalf("session at %d, want at least %d", got, cur+40)
	}
}

// TestJournalSessionTaintedRefusesDurableReSeed: once SetStatic has
// modified state, travel back, which could only restore the durable
// recording, must refuse (it would silently discard the modification),
// while forward execution of the tainted session keeps working.
func TestJournalSessionTaintedRefusesDurableReSeed(t *testing.T) {
	_, _, s := journalFixture(t)
	cks := s.Journal().Manifest.Checkpoints
	first := cks[0]
	if err := s.TravelTo(first.VMEvents + 5); err != nil {
		t.Fatalf("forward travel: %v", err)
	}
	if err := s.SetStatic("Main.count", 999); err != nil {
		t.Fatalf("set static: %v", err)
	}
	if !s.Tainted() {
		t.Fatal("SetStatic did not taint the session")
	}
	// SetStatic drops the in-memory checkpoints, so this backward target
	// has only the durable path — and must be refused.
	err := s.TravelTo(2)
	if err == nil {
		t.Fatal("tainted session allowed a durable restore")
	}
	if !strings.Contains(err.Error(), "tainted") {
		t.Fatalf("refusal does not explain the taint: %v", err)
	}
	// Forward travel starts from the VM's position and stays available.
	cur := s.VM.Events()
	if err := s.TravelTo(cur + 20); err != nil {
		t.Fatalf("forward travel on tainted session: %v", err)
	}
	if got := s.VM.Events(); got < cur+20 {
		t.Fatalf("session at %d, want at least %d", got, cur+20)
	}
}

// TestBreakpointsSurviveDurableReseed: a travel from a debugger opened
// deep in the journal back before its open position keeps the same VM and
// debugger, so a breakpoint set before it still lists afterwards, and a
// Continue from the rewound position stops at it.
func TestBreakpointsSurviveDurableReseed(t *testing.T) {
	prog, fs, ref := journalFixture(t)
	cks := ref.Journal().Manifest.Checkpoints
	last := cks[len(cks)-1]

	d, err := OpenJournal(mustImage(t, prog), fs, last.VMEvents+5, nil)
	if err != nil {
		t.Fatalf("open at %d: %v", last.VMEvents+5, err)
	}
	d.MaxCheckpoints = 7
	// The loop head of main: pollevents runs onEvent nested inside one
	// step, so only main's own instructions are step boundaries.
	if _, err := d.BreakAt("Main.main", 2); err != nil {
		t.Fatal(err)
	}
	want := d.Breakpoints()
	before := d.VM
	if err := d.TravelTo(10); err != nil {
		t.Fatalf("rewinding travel: %v", err)
	}
	if d.VM != before {
		t.Fatal("travel before the open position replaced the VM")
	}
	if got := d.Breakpoints(); strings.Join(got, ";") != strings.Join(want, ";") {
		t.Fatalf("breakpoints after rewind = %q, want %q", got, want)
	}
	if d.MaxCheckpoints != 7 {
		t.Fatalf("MaxCheckpoints after rewind = %d, want 7", d.MaxCheckpoints)
	}
	reason, err := d.Continue()
	if err != nil || reason != StopBreakpoint {
		t.Fatalf("continue after rewind = %v, %v; want a breakpoint stop", reason, err)
	}
	if _, mid, pc, _ := d.VM.CurrentSite(); prog.Methods[mid].FullName() != "Main.main" || pc != 2 {
		t.Fatalf("stopped at %s pc=%d, want Main.main pc=2", prog.Methods[mid].FullName(), pc)
	}
}

// mustImage loads prog for OpenJournal.
func mustImage(t testing.TB, prog *bytecode.Program) *vm.Image {
	t.Helper()
	img, err := vm.NewImage(prog)
	if err != nil {
		t.Fatal(err)
	}
	return img
}
