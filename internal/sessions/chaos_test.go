// The chaos matrix: every injectable storage fault kind crossed with every
// lifecycle phase that touches the backing store (create/record, cold
// attach, durable checkpoint travel, flight flush). Each cell asserts the
// containment contract — the process survives, the faulted session
// quarantines as degraded, siblings' replay digests stay bit-identical to
// a fault-free run — and that healing the store brings the session back to
// active through the supervised retry path.
package sessions

import (
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dejavu/internal/dbgproto"
	"dejavu/internal/debugger"
	"dejavu/internal/faults/chaosfs"
	"dejavu/internal/obs"
	"dejavu/internal/trace"
)

// chaosConfig wires a chaos plan into the one session named target; every
// other session sees the pristine filesystem. Retry cadence is shrunk so
// recovery tests complete in milliseconds.
func chaosConfig(st *chaosfs.State, target string) Config {
	return Config{
		RetryBase: 10 * time.Millisecond,
		RetryMax:  50 * time.Millisecond,
		RetrySeed: 42,
		WrapFS: func(id string, fs trace.FS) trace.FS {
			if id == target {
				return st.Wrap(fs)
			}
			return fs
		},
	}
}

// waitState polls until the session reaches the wanted state — how a test
// observes the background repair supervisor — or fails after the deadline.
func waitState(t *testing.T, m *Manager, id, want string, within time.Duration) *Info {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		info, err := m.Info(id)
		if err != nil {
			t.Fatalf("info %s: %v", id, err)
		}
		if info.State == want {
			return info
		}
		if time.Now().After(deadline) {
			t.Fatalf("session %s stuck in %q (degraded: %q), want %q", id, info.State, info.Degraded, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestChaosCreateMatrix runs every failing fault kind against the
// record/create phase: the faulted create quarantines instead of rolling
// back, the sibling session keeps replaying bit-identically, and healing
// the store recovers the quarantined session with a salvaged journal.
func TestChaosCreateMatrix(t *testing.T) {
	// Fault-free baseline: the digest every sibling must keep producing.
	base := newTestManager(t, Config{})
	bInfo, err := base.Create(CreateRequest{Program: "workload:fig1ab", Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		fault chaosfs.Fault
		// fullReplay: the fault struck after the stream was fully written
		// (only durability/publish failed), so the salvaged journal must
		// replay bit-identically to the fault-free run. A mid-stream cut
		// (enospc, eio) salvages a truncated prefix that serves the
		// debugger but cannot satisfy a full-program replay.
		fullReplay bool
	}{
		// After lets the segment header and a few event chunks land, so the
		// salvage scanner has a non-empty valid prefix to recover once the
		// store heals.
		{"enospc", chaosfs.Fault{Kind: chaosfs.ENOSPC, After: 6}, false},
		{"eio", chaosfs.Fault{Kind: chaosfs.EIO, After: 6}, false},
		{"fsync", chaosfs.Fault{Kind: chaosfs.FsyncFail}, true},
		{"torn-rename", chaosfs.Fault{Kind: chaosfs.TornRename}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := chaosfs.New(tc.fault)
			st.Disarm()
			m := newTestManager(t, chaosConfig(st, "s2"))
			sib, err := m.Create(CreateRequest{Program: "workload:fig1ab", Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			if sib.Digest != bInfo.Digest {
				t.Fatalf("sibling digest %s != fault-free baseline %s", sib.Digest, bInfo.Digest)
			}

			st.Arm()
			_, err = m.Create(CreateRequest{Program: "workload:fig1ab", Seed: 7})
			rf := wantRefusal(t, err, ReasonDegraded)
			if rf.RetryAfter <= 0 {
				t.Fatalf("degraded refusal carries no retry guidance: %+v", rf)
			}
			if st.Injected() == 0 {
				t.Fatal("no fault injected; the create never touched the chaos FS")
			}

			// The faulted session is registered and quarantined, not rolled
			// back; the sibling is untouched.
			list := m.List()
			if len(list) != 2 {
				t.Fatalf("listing holds %d sessions, want 2: %+v", len(list), list)
			}
			states := map[string]*Info{}
			for _, in := range list {
				states[in.ID] = in
			}
			if got := states["s2"]; got == nil || got.State != "degraded" || got.Degraded == "" {
				t.Fatalf("faulted session = %+v, want degraded with a cause", got)
			}
			if got := states["s1"]; got == nil || got.State != "active" {
				t.Fatalf("sibling = %+v, want active", got)
			}

			// Sibling replay stays bit-identical to the fault-free run while
			// its neighbor is quarantined.
			if _, dig, err := m.VerifyReplay(sib.ID); err != nil || dig != bInfo.Digest {
				t.Fatalf("sibling replay = %q, %v; want fault-free digest %s", dig, err, bInfo.Digest)
			}

			// Store-touching commands refuse with the structured reason
			// while degraded.
			if _, _, err := m.FlushFlight("s2", "probe"); err == nil {
				t.Fatal("flush succeeded on a degraded session")
			} else {
				wantRefusal(t, err, ReasonDegraded)
			}

			// Heal the store: the supervisor repairs in place and the
			// session returns to active with its salvaged journal replaying.
			st.Disarm()
			info := waitState(t, m, "s2", "active", 10*time.Second)
			if info.Recoveries != 1 {
				t.Fatalf("recoveries = %d, want 1", info.Recoveries)
			}
			if tc.fullReplay {
				if _, dig, err := m.VerifyReplay("s2"); err != nil || dig != bInfo.Digest {
					t.Fatalf("recovered replay = %q, %v; want fault-free digest %s", dig, err, bInfo.Digest)
				}
			} else {
				// A mid-stream cut recovers as a truncated journal — maybe
				// even an empty one when the cut beheaded the first chunk.
				// What matters is that service is back: the session answers
				// commands again instead of refusing as degraded.
				if _, err := m.Travel("s2", 0); err != nil {
					t.Fatalf("recovered truncated session refuses commands: %v", err)
				}
			}
		})
	}
}

// TestChaosSlowCreateSucceeds: injected latency is degraded service, not a
// fault — creates ride it out and nothing quarantines.
func TestChaosSlowCreateSucceeds(t *testing.T) {
	st := chaosfs.New(chaosfs.Fault{Kind: chaosfs.Slow, Latency: time.Millisecond})
	m := newTestManager(t, chaosConfig(st, "s1"))
	info, err := m.Create(CreateRequest{Program: "workload:fig1ab", Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if info.State != "active" {
		t.Fatalf("state = %s, want active", info.State)
	}
	if st.Injected() != 0 {
		t.Fatalf("latency counted as %d injections", st.Injected())
	}
}

// TestChaosColdAttachDegradesAndRecovers: a restarted manager adopts its
// sessions cold; when the first attach hits a dead disk the session
// quarantines (instead of erroring opaquely forever), then recovers and
// replays bit-identically once the disk returns.
func TestChaosColdAttachDegradesAndRecovers(t *testing.T) {
	root := t.TempDir()
	m1 := newTestManager(t, Config{DataRoot: root})
	info, err := m1.Create(CreateRequest{Program: "workload:fig1ab", Seed: 7, RotateEvents: 300})
	if err != nil {
		t.Fatal(err)
	}

	st := chaosfs.New(chaosfs.Fault{Kind: chaosfs.EIO})
	cfg := chaosConfig(st, info.ID)
	cfg.DataRoot = root
	m2 := newTestManager(t, cfg)

	_, err = m2.Travel(info.ID, 1)
	wantRefusal(t, err, ReasonDegraded)
	if got, err := m2.Info(info.ID); err != nil || got.State != "degraded" {
		t.Fatalf("after faulted cold attach: %+v, %v; want degraded", got, err)
	}
	// A cold session has no in-memory VM to serve read-only: commands keep
	// refusing with the same structured reason, never a panic or a hang.
	_, err = m2.Travel(info.ID, 1)
	wantRefusal(t, err, ReasonDegraded)

	st.Disarm()
	waitState(t, m2, info.ID, "active", 10*time.Second)
	if _, dig, err := m2.VerifyReplay(info.ID); err != nil || dig != info.Digest {
		t.Fatalf("recovered replay = %q, %v; want original digest %s", dig, err, info.Digest)
	}
}

// TestChaosTravelReseedDegradesKeepsMemoryServiceAndRecovers: a travel
// that starts from a durable checkpoint reads it from the store, the read
// path's fault point. The faulted travel quarantines, but the resident VM
// keeps serving in-memory travel read-only; healing restores durable
// travel and the replay digest.
func TestChaosTravelReseedDegradesKeepsMemoryServiceAndRecovers(t *testing.T) {
	// Fault-free probe run to learn the workload's event count (recording
	// is deterministic, so the chaos run matches it exactly). RotateEvents
	// counts logged trace events, so keep it tiny to force real rotations
	// (and with them the mid-journal durable checkpoints travel starts from).
	probe := newTestManager(t, Config{})
	pInfo, err := probe.Create(CreateRequest{Program: "workload:fig1ab", Seed: 7, RotateEvents: 2})
	if err != nil {
		t.Fatal(err)
	}

	st := chaosfs.New(chaosfs.Fault{Kind: chaosfs.EIO})
	st.Disarm()
	m := newTestManager(t, chaosConfig(st, "s1"))
	// Opened at the journal's end, the session's in-memory checkpoints are
	// its anchor at event zero and the VM's position, so traveling just
	// behind the VM starts from a late durable checkpoint, read from the
	// store.
	info, err := m.Create(CreateRequest{
		Program: "workload:fig1ab", Seed: 7, RotateEvents: 2, FromEvent: pInfo.Events - 1,
	})
	if err != nil {
		t.Fatal(err)
	}

	st.Arm()
	_, err = m.Travel(info.ID, pInfo.Events-2)
	wantRefusal(t, err, ReasonDegraded)

	// Read-only service survives quarantine: in-memory travel (to the VM's
	// position) still works, and the session stays degraded.
	if _, err := m.Travel(info.ID, info.Position); err != nil {
		t.Fatalf("in-memory travel on a degraded session: %v", err)
	}
	if got, _ := m.Info(info.ID); got.State != "degraded" {
		t.Fatalf("state after in-memory travel = %s, want still degraded", got.State)
	}

	st.Disarm()
	waitState(t, m, info.ID, "active", 10*time.Second)
	if ti, err := m.Travel(info.ID, 1); err != nil {
		t.Fatalf("durable travel after recovery: %v", err)
	} else if ti.Position > pInfo.Events {
		t.Fatalf("position after recovered travel = %d, want within the journal", ti.Position)
	}
	if _, dig, err := m.VerifyReplay(info.ID); err != nil || dig != pInfo.Digest {
		t.Fatalf("recovered replay = %q, %v; want fault-free digest %s", dig, err, pInfo.Digest)
	}
}

// recordingResolver serves a Manager's sessions to a dbgproto server and
// keeps the error of the last command each handle executed, so a test
// driving travel over the wire still sees the structured refusal.
type recordingResolver struct {
	m    *Manager
	mu   sync.Mutex
	last error
}

func (r *recordingResolver) AttachSession(id string) (dbgproto.SessionHandle, error) {
	h, err := r.m.AttachSession(id)
	if err != nil {
		return nil, err
	}
	return &recordingHandle{SessionHandle: h, r: r}, nil
}

func (r *recordingResolver) lastErr() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.last
}

type recordingHandle struct {
	dbgproto.SessionHandle
	r *recordingResolver
}

func (h *recordingHandle) Exec(f func(*debugger.Debugger) error) error {
	err := h.SessionHandle.Exec(f)
	h.r.mu.Lock()
	h.r.last = err
	h.r.mu.Unlock()
	return err
}

// TestChaosDbgprotoTravelReseedDegradesAndRecovers is the durable
// checkpoint travel cell with the travel sent as a dbgproto command through
// AttachSession instead of the control plane: it is counted the same way,
// a storage fault reading the checkpoint still quarantines the session with
// a degraded refusal, and in-memory travel keeps working until repair.
func TestChaosDbgprotoTravelReseedDegradesAndRecovers(t *testing.T) {
	probe := newTestManager(t, Config{})
	pInfo, err := probe.Create(CreateRequest{Program: "workload:fig1ab", Seed: 7, RotateEvents: 2})
	if err != nil {
		t.Fatal(err)
	}

	st := chaosfs.New(chaosfs.Fault{Kind: chaosfs.EIO})
	st.Disarm()
	cfg := chaosConfig(st, "s1")
	reg := obs.NewRegistry()
	cfg.Obs = reg
	m := newTestManager(t, cfg)
	// Both sessions open at the journal's end: travel just behind the VM
	// starts from a late durable checkpoint, read from the store.
	deep := CreateRequest{Program: "workload:fig1ab", Seed: 7, RotateEvents: 2, FromEvent: pInfo.Events - 1}
	info, err := m.Create(deep)
	if err != nil {
		t.Fatal(err)
	}
	sibling, err := m.Create(deep)
	if err != nil {
		t.Fatal(err)
	}

	r := &recordingResolver{m: m}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go (&dbgproto.Server{Resolver: r}).Serve(l)
	c, err := dbgproto.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	travels := reg.Counter("dv_sessions_travels_total")
	reseeds := reg.Counter("dv_journal_reseeds_total")
	travels0, reseeds0 := travels.Value(), reseeds.Value()
	behind := fmt.Sprintf("travel %d", pInfo.Events-2)

	// A healthy durable travel over the wire counts as a travel and a
	// durable restore.
	if _, err := c.Send("attach " + sibling.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Send(behind); err != nil {
		t.Fatalf("dbgproto durable travel: %v", err)
	}
	if got, _ := m.Info(sibling.ID); got.Travels != 1 || got.Reseeds != sibling.Reseeds+1 {
		t.Fatalf("sibling travels/reseeds = %d/%d, want 1/%d", got.Travels, got.Reseeds, sibling.Reseeds+1)
	}
	if d := reseeds.Value() - reseeds0; d != 1 {
		t.Fatalf("dv_journal_reseeds_total moved by %d, want 1", d)
	}

	if _, err := c.Send("attach " + info.ID); err != nil {
		t.Fatal(err)
	}
	st.Arm()
	if _, err := c.Send(behind); err == nil || !strings.Contains(err.Error(), "degraded") {
		t.Fatalf("faulted dbgproto travel = %v, want a degraded refusal", err)
	}
	wantRefusal(t, r.lastErr(), ReasonDegraded)
	if got, _ := m.Info(info.ID); got.State != "degraded" || got.Travels != 1 {
		t.Fatalf("after faulted travel: state %s, travels %d; want degraded, 1", got.State, got.Travels)
	}

	// Read-only service survives quarantine: in-memory travel still works.
	if _, err := c.Send(fmt.Sprintf("travel %d", info.Position)); err != nil {
		t.Fatalf("in-memory dbgproto travel on a degraded session: %v", err)
	}
	if got, _ := m.Info(info.ID); got.State != "degraded" || got.Travels != 2 {
		t.Fatalf("after in-memory travel: state %s, travels %d; want degraded, 2", got.State, got.Travels)
	}

	st.Disarm()
	waitState(t, m, info.ID, "active", 10*time.Second)
	if _, err := c.Send("travel 1"); err != nil {
		t.Fatalf("dbgproto travel after recovery: %v", err)
	}
	if got, _ := m.Info(info.ID); got.Travels != 3 || got.Position > pInfo.Events {
		t.Fatalf("after recovery: travels %d, position %d; want 3, within the journal", got.Travels, got.Position)
	}
	if d := travels.Value() - travels0; d != 4 {
		t.Fatalf("dv_sessions_travels_total moved by %d, want 4", d)
	}
	if _, dig, err := m.VerifyReplay(info.ID); err != nil || dig != pInfo.Digest {
		t.Fatalf("recovered replay = %q, %v; want fault-free digest %s", dig, err, pInfo.Digest)
	}
}

// TestChaosFlightFlushDegradesAndRecovers: a manual flight flush that hits
// a dead disk quarantines the session but keeps the resident window; after
// healing, the recovered session flushes a journal that opens.
func TestChaosFlightFlushDegradesAndRecovers(t *testing.T) {
	st := chaosfs.New(chaosfs.Fault{Kind: chaosfs.EIO})
	st.Disarm()
	m := newTestManager(t, chaosConfig(st, "s1"))
	info, err := m.Create(CreateRequest{Program: "workload:fig1ab", Seed: 7, Flight: true})
	if err != nil {
		t.Fatal(err)
	}

	st.Arm()
	_, _, err = m.FlushFlight(info.ID, "chaos")
	wantRefusal(t, err, ReasonDegraded)
	if got, _ := m.Info(info.ID); got.State != "degraded" {
		t.Fatalf("state after faulted flush = %s, want degraded", got.State)
	}

	st.Disarm()
	waitState(t, m, info.ID, "active", 10*time.Second)
	_, name, err := m.FlushFlight(info.ID, "post-recovery")
	if err != nil {
		t.Fatalf("flush after recovery: %v", err)
	}
	fs, err := trace.NewDirFS(filepath.Join(m.cfg.DataRoot, "sessions", info.ID, name))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.OpenJournal(fs); err != nil {
		t.Fatalf("recovered flush does not open as a journal: %v", err)
	}
}

// TestChaosFlightCreateTornFlushRepairsFromResidentWindow: the create-time
// flight flush tears (non-atomic rename loses the manifest publish). The
// window is still resident in memory, so repair re-flushes it — no data
// loss, and the session comes up active with a replayable journal.
func TestChaosFlightCreateTornFlushRepairsFromResidentWindow(t *testing.T) {
	st := chaosfs.New(chaosfs.Fault{Kind: chaosfs.TornRename})
	m := newTestManager(t, chaosConfig(st, "s1"))
	_, err := m.Create(CreateRequest{Program: "workload:fig1ab", Seed: 7, Flight: true})
	wantRefusal(t, err, ReasonDegraded)

	st.Disarm()
	info := waitState(t, m, "s1", "active", 10*time.Second)
	if info.Events == 0 {
		t.Fatalf("repaired flight session reports no events: %+v", info)
	}
	if _, dig, err := m.VerifyReplay("s1"); err != nil || dig == "" {
		t.Fatalf("repaired flight replay = %q, %v; want a digest", dig, err)
	}
}

// TestChaosRepairKeepsDebugger: a storage fault during a durable travel
// leaves the session's debugger untouched, so repair keeps it: the
// session comes back as the same *Debugger, with its breakpoints, its
// position and its checkpoint cadence.
func TestChaosRepairKeepsDebugger(t *testing.T) {
	st := chaosfs.New(chaosfs.Fault{Kind: chaosfs.EIO})
	st.Disarm()
	m := newTestManager(t, chaosConfig(st, "s1"))
	info, err := m.Create(CreateRequest{Program: "workload:fig1ab", Seed: 7, RotateEvents: 2, FromEvent: 216})
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.lookup(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	d := s.d
	entry := d.VM.Program().EntryMethod().FullName()
	if _, err := d.BreakAt(entry, 1); err != nil {
		s.mu.Unlock()
		t.Fatal(err)
	}
	d.CheckpointEvery = 777
	pos, bps := d.VM.Events(), d.Breakpoints()
	s.mu.Unlock()
	if pos != 216 {
		t.Fatalf("session opened at event %d, want 216", pos)
	}

	// Just behind the VM, travel starts from a durable checkpoint: the
	// faulted read quarantines the session and restores nothing.
	st.Arm()
	_, err = m.Travel(info.ID, pos-1)
	wantRefusal(t, err, ReasonDegraded)
	st.Disarm()
	waitState(t, m, info.ID, "active", 10*time.Second)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.d != d {
		t.Fatal("repair replaced the debugger")
	}
	if got := d.VM.Events(); got != pos {
		t.Fatalf("position after repair = %d, want %d", got, pos)
	}
	if got := d.Breakpoints(); fmt.Sprint(got) != fmt.Sprint(bps) || len(got) != 1 {
		t.Fatalf("breakpoints after repair = %v, want %v", got, bps)
	}
	if d.CheckpointEvery != 777 {
		t.Fatalf("CheckpointEvery after repair = %d, want 777", d.CheckpointEvery)
	}
}
