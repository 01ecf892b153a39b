// Registry semantics under the microscope: admission refusals carry
// machine-readable reasons, kills resolve through the command lock (the
// PR's teardown-race fix — run these with -race), drain checkpoints every
// live session, and a restarted manager adopts its predecessor's sessions
// cold.
package sessions

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dejavu/internal/debugger"
	"dejavu/internal/heap"
	"dejavu/internal/ptrace"
	"dejavu/internal/replaycheck"
	"dejavu/internal/trace"
	"dejavu/internal/workloads"
)

func mustDirFS(t *testing.T) *trace.DirFS {
	t.Helper()
	fs, err := trace.NewDirFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func newTestManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	if cfg.DataRoot == "" {
		cfg.DataRoot = t.TempDir()
	}
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// wantRefusal asserts err is a Refusal with the given reason.
func wantRefusal(t *testing.T, err error, reason string) *Refusal {
	t.Helper()
	var rf *Refusal
	if !errors.As(err, &rf) {
		t.Fatalf("error = %v, want a *Refusal(%s)", err, reason)
	}
	if rf.Reason != reason {
		t.Fatalf("refusal reason = %q (%s), want %q", rf.Reason, rf.Msg, reason)
	}
	return rf
}

func TestCreateTravelVerifyKill(t *testing.T) {
	m := newTestManager(t, Config{})
	info, err := m.Create(CreateRequest{Program: "workload:fig1ab", Seed: 7, RotateEvents: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if info.State != "active" || info.Events == 0 || info.Digest == "" {
		t.Fatalf("create info = %+v, want active with events and a digest", info)
	}

	// Travel lands the session at (or just past) the target event.
	target := info.Events / 2
	ti, err := m.Travel(info.ID, target)
	if err != nil {
		t.Fatal(err)
	}
	if ti.Position < target {
		t.Fatalf("position after travel = %d, want >= %d", ti.Position, target)
	}
	if ti.Travels != 1 {
		t.Fatalf("travels = %d, want 1", ti.Travels)
	}

	// A from-zero replay of the stored journal reproduces the record digest
	// bit for bit — and runs while the session stays attached.
	vi, digest, err := m.VerifyReplay(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if digest != vi.Digest {
		t.Fatalf("replay digest %s != record digest %s", digest, vi.Digest)
	}

	// The record digest also matches an identically-seeded single-session
	// run: multi-tenant hosting does not perturb the recording.
	solo, err := replaycheck.RecordJournal(workloads.Fig1AB(), mustDirFS(t), replaycheck.Options{Seed: 7, RotateEvents: 2000})
	if err != nil || solo.RunErr != nil {
		t.Fatalf("solo record: %v %v", err, solo.RunErr)
	}
	if want := fmt.Sprintf("%016x", solo.Digest.Sum()); want != info.Digest {
		t.Fatalf("session digest %s != single-session digest %s", info.Digest, want)
	}

	if err := m.Kill(info.ID, false); err != nil {
		t.Fatal(err)
	}
	_, err = m.Info(info.ID)
	wantRefusal(t, err, ReasonNotFound)
	// Storage survives a non-purge kill.
	if _, err := os.Stat(filepath.Join(m.cfg.DataRoot, "sessions", info.ID, "meta.json")); err != nil {
		t.Fatalf("meta.json gone after non-purge kill: %v", err)
	}
}

func TestCapacityRefusalAndReadmission(t *testing.T) {
	m := newTestManager(t, Config{MaxSessions: 2})
	a, err := m.Create(CreateRequest{Program: "workload:fig1ab"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create(CreateRequest{Program: "workload:fig1ab"}); err != nil {
		t.Fatal(err)
	}
	_, err = m.Create(CreateRequest{Program: "workload:fig1ab"})
	wantRefusal(t, err, ReasonCapacity)
	// Killing a session frees its slot: the very next create is admitted.
	if err := m.Kill(a.ID, true); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create(CreateRequest{Program: "workload:fig1ab"}); err != nil {
		t.Fatalf("create after kill: %v", err)
	}
}

func TestTenantCap(t *testing.T) {
	m := newTestManager(t, Config{MaxPerTenant: 1})
	if _, err := m.Create(CreateRequest{Tenant: "alice", Program: "workload:fig1ab"}); err != nil {
		t.Fatal(err)
	}
	_, err := m.Create(CreateRequest{Tenant: "alice", Program: "workload:fig1ab"})
	wantRefusal(t, err, ReasonTenantCap)
	// One tenant at its cap never blocks another.
	if _, err := m.Create(CreateRequest{Tenant: "bob", Program: "workload:fig1ab"}); err != nil {
		t.Fatalf("second tenant refused: %v", err)
	}
}

func TestBusyRefusalWhenWorkersExhausted(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, AdmitTimeout: 30 * time.Millisecond})
	info, err := m.Create(CreateRequest{Program: "workload:fig1ab"})
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.lookup(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	// Occupy the only worker slot with a command that won't finish until
	// released, then demand another slot: the second caller must get a
	// structured busy refusal after AdmitTimeout, not an unbounded queue.
	hold := make(chan struct{})
	holding := make(chan struct{})
	go s.Exec(func(*debugger.Debugger) error {
		close(holding)
		<-hold
		return nil
	})
	<-holding
	_, err = m.Create(CreateRequest{Program: "workload:fig1ab"})
	wantRefusal(t, err, ReasonBusy)
	close(hold)
}

func TestDrainCheckpointsAndRefusesCreates(t *testing.T) {
	m := newTestManager(t, Config{})
	a, err := m.Create(CreateRequest{Program: "workload:fig1ab"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Create(CreateRequest{Program: "workload:sleepy"})
	if err != nil {
		t.Fatal(err)
	}
	saved := m.Drain("exit.dvck")
	if len(saved) != 2 {
		t.Fatalf("drain saved %v, want both sessions", saved)
	}
	for _, id := range []string{a.ID, b.ID} {
		ck := filepath.Join(m.cfg.DataRoot, "sessions", id, "exit.dvck")
		if fi, err := os.Stat(ck); err != nil || fi.Size() == 0 {
			t.Fatalf("drain checkpoint for %s: %v", id, err)
		}
	}
	if !m.Draining() {
		t.Fatal("Draining() = false after Drain")
	}
	_, err = m.Create(CreateRequest{Program: "workload:fig1ab"})
	wantRefusal(t, err, ReasonDraining)
}

func TestColdReloadAcrossRestart(t *testing.T) {
	root := t.TempDir()
	m1 := newTestManager(t, Config{DataRoot: root})
	info, err := m1.Create(CreateRequest{Program: "workload:fig1ab", Seed: 3, RotateEvents: 1500})
	if err != nil {
		t.Fatal(err)
	}
	m1.Drain("") // seal; no checkpoint needed

	// A fresh manager over the same root adopts the session cold...
	m2 := newTestManager(t, Config{DataRoot: root})
	list := m2.List()
	if len(list) != 1 || list[0].ID != info.ID || list[0].State != "cold" {
		t.Fatalf("reloaded list = %+v, want one cold %s", list, info.ID)
	}
	if list[0].Digest != info.Digest {
		t.Fatalf("reloaded digest %s != recorded %s", list[0].Digest, info.Digest)
	}
	// ...and the first attach re-opens it for real work.
	h, err := m2.AttachSession(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Detach()
	err = h.Exec(func(d *debugger.Debugger) error {
		if err := d.TravelTo(info.Events / 2); err != nil {
			return err
		}
		if got := d.VM.Events(); got < info.Events/2 {
			return fmt.Errorf("position %d after travel", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ri, err := m2.Info(info.ID)
	if err != nil || ri.State != "active" {
		t.Fatalf("after attach: %+v %v", ri, err)
	}
	// Session numbering continues past the adopted sessions.
	next, err := m2.Create(CreateRequest{Program: "workload:fig1ab"})
	if err != nil {
		t.Fatal(err)
	}
	if next.Num <= info.Num {
		t.Fatalf("new session num %d not after reloaded %d", next.Num, info.Num)
	}
}

func TestCreateRollbackFreesReservation(t *testing.T) {
	m := newTestManager(t, Config{MaxSessions: 1})
	if _, err := m.Create(CreateRequest{Program: "workload:nope"}); err == nil {
		t.Fatal("create of unknown workload succeeded")
	}
	// The failed create released its capacity slot and removed its
	// directory — it must not resurrect as a cold session.
	if n, _ := os.ReadDir(filepath.Join(m.cfg.DataRoot, "sessions")); len(n) != 0 {
		t.Fatalf("failed create left %d session dirs", len(n))
	}
	if _, err := m.Create(CreateRequest{Program: "workload:fig1ab"}); err != nil {
		t.Fatalf("capacity leaked by failed create: %v", err)
	}
}

// TestKillUnderConcurrentAccess is the teardown-race regression test: a
// kill issued while dbgproto-style commands and ptrace-style peeks hammer
// the session must resolve through the session lock — in-flight work
// completes, later work gets a structured refusal, and nothing touches a
// freed VM. Run with -race.
func TestKillUnderConcurrentAccess(t *testing.T) {
	m := newTestManager(t, Config{Workers: 8})
	info, err := m.Create(CreateRequest{Program: "workload:fig1ab", Seed: 11})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	fail := make(chan error, 16)
	ok := func(err error) bool {
		if err == nil {
			return true
		}
		var rf *Refusal
		if errors.As(err, &rf) && (rf.Reason == ReasonKilled || rf.Reason == ReasonNotFound || rf.Reason == ReasonBusy) {
			return true
		}
		select {
		case fail <- err:
		default:
		}
		return false
	}

	// Command hammer: attach + step, the dbgproto path.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				h, err := m.AttachSession(info.ID)
				if !ok(err) || err != nil {
					continue
				}
				ok(h.Exec(func(d *debugger.Debugger) error {
					d.Status()
					return nil
				}))
				h.Detach()
			}
		}()
	}
	// Peek hammer: the ptrace path, heap reads under the session lock.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 8)
			for {
				select {
				case <-stop:
					return
				default:
				}
				ok(m.WithSession(info.Num, func(h *heap.Heap, roots ptrace.RootSource) error {
					dict, _ := roots.Roots()
					if dict != 0 {
						_ = h.ReadBytes(dict, buf)
					}
					return nil
				}))
			}
		}()
	}

	time.Sleep(20 * time.Millisecond) // let the hammers land mid-flight
	if err := m.Kill(info.ID, true); err != nil {
		t.Fatalf("kill: %v", err)
	}
	time.Sleep(20 * time.Millisecond) // post-kill traffic must refuse cleanly
	close(stop)
	wg.Wait()
	select {
	case err := <-fail:
		t.Fatalf("concurrent access saw a non-refusal error: %v", err)
	default:
	}
	// The killed session is gone from both indexes.
	_, err = m.Info(info.ID)
	wantRefusal(t, err, ReasonNotFound)
	err = m.WithSession(info.Num, func(*heap.Heap, ptrace.RootSource) error { return nil })
	wantRefusal(t, err, ReasonNotFound)
}

func TestOptimizedSessionRecordsVerdictAndReplaysCold(t *testing.T) {
	root := t.TempDir()
	m1 := newTestManager(t, Config{DataRoot: root})
	info, err := m1.Create(CreateRequest{Program: "workload:fig1ab", Seed: 11, RotateEvents: 1500, Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Optimize || info.OptVerdict != "certified" {
		t.Fatalf("info = %+v, want optimize with a certified verdict", info)
	}
	// The verdict is durable identity: meta.json carries it.
	blob, err := os.ReadFile(filepath.Join(root, "sessions", info.ID, "meta.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"optimize": true`, `"opt_verdict": "certified"`} {
		if !strings.Contains(string(blob), want) {
			t.Fatalf("meta.json missing %q:\n%s", want, blob)
		}
	}
	m1.Drain("")

	// A restarted manager re-derives the optimized build from the spec
	// (the optimizer is deterministic) and the journal replays bit-for-bit
	// against it.
	m2 := newTestManager(t, Config{DataRoot: root})
	vi, digest, err := m2.VerifyReplay(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if digest != vi.Digest || digest != info.Digest {
		t.Fatalf("cold replay digest %s, want %s (info %s)", digest, vi.Digest, info.Digest)
	}
	if !vi.Optimize || vi.OptVerdict != "certified" {
		t.Fatalf("cold info = %+v, want optimize verdict preserved", vi)
	}
}
