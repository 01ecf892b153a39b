// Multi-session (Resolver) mode: the same wire protocol, but every
// connection must bind to a session with `attach` before commands run, and
// commands route through the session's own handle.
package dbgproto

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"dejavu/internal/core"
	"dejavu/internal/debugger"
	"dejavu/internal/replaycheck"
	"dejavu/internal/vm"
	"dejavu/internal/workloads"
)

// fakeResolver serves debuggers by ID with a per-session lock, the same
// contract the sessions registry implements.
type fakeResolver struct {
	mu       sync.Mutex
	sessions map[string]*debugger.Debugger
	attaches int
	detaches int
}

func (r *fakeResolver) AttachSession(id string) (SessionHandle, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	d, ok := r.sessions[id]
	if !ok {
		return nil, fmt.Errorf("no session %q", id)
	}
	r.attaches++
	return &fakeHandle{r: r, d: d}, nil
}

type fakeHandle struct {
	r *fakeResolver
	d *debugger.Debugger
}

func (h *fakeHandle) Exec(f func(d *debugger.Debugger) error) error {
	h.r.mu.Lock()
	defer h.r.mu.Unlock()
	return f(h.d)
}

func (h *fakeHandle) Detach() {
	h.r.mu.Lock()
	defer h.r.mu.Unlock()
	h.r.detaches++
}

func bankDebugger(t *testing.T, seed int64) *debugger.Debugger {
	t.Helper()
	prog := workloads.Bank(2, 4, 100)
	rec, err := replaycheck.Record(prog, replaycheck.Options{Seed: seed})
	if err != nil || rec.RunErr != nil {
		t.Fatalf("record: %v %v", err, rec.RunErr)
	}
	ecfg := core.DefaultConfig(core.ModeReplay)
	ecfg.ProgHash = vm.ProgramHash(prog)
	ecfg.TraceIn = rec.Trace
	eng, _ := core.NewEngine(ecfg)
	m, err := vm.New(prog, vm.Config{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	return debugger.New(m)
}

func TestResolverModeAttachAndExec(t *testing.T) {
	r := &fakeResolver{sessions: map[string]*debugger.Debugger{
		"s1": bankDebugger(t, 3),
		"s2": bankDebugger(t, 4),
	}}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go (&Server{Resolver: r}).Serve(l)
	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	// Commands before attach are refused with guidance; help still works.
	if _, err := c.Send("status"); err == nil || !strings.Contains(err.Error(), "attach <session-id>") {
		t.Fatalf("unattached status: %v, want attach guidance", err)
	}
	if body, err := c.Send("help"); err != nil || !strings.Contains(body, "attach <session-id>") {
		t.Fatalf("help: %q %v", body, err)
	}

	// Attach and run commands against the bound session.
	if body, err := c.Send("attach s1"); err != nil || !strings.Contains(body, "attached s1") {
		t.Fatalf("attach: %q %v", body, err)
	}
	if body, err := c.Send("status"); err != nil || !strings.Contains(body, "events=") {
		t.Fatalf("status: %q %v", body, err)
	}
	if body, err := c.Send("step 10"); err != nil || !strings.Contains(body, "stopped:") {
		t.Fatalf("step: %q %v", body, err)
	}

	// Re-attach to a different session replaces the binding (and detaches
	// the old handle).
	if _, err := c.Send("attach s2"); err != nil {
		t.Fatal(err)
	}
	r.mu.Lock()
	attaches, detaches := r.attaches, r.detaches
	r.mu.Unlock()
	if attaches != 2 || detaches != 1 {
		t.Fatalf("attaches/detaches = %d/%d, want 2/1", attaches, detaches)
	}

	// Unknown session: structured error, connection intact.
	if _, err := c.Send("attach nope"); err == nil || !strings.Contains(err.Error(), "no session") {
		t.Fatalf("attach nope: %v", err)
	}
	if _, err := c.Send("status"); err != nil {
		t.Fatalf("connection broken by failed attach: %v", err)
	}
}

func TestResolverModeDetachOnDisconnect(t *testing.T) {
	r := &fakeResolver{sessions: map[string]*debugger.Debugger{"s1": bankDebugger(t, 3)}}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go (&Server{Resolver: r}).Serve(l)
	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Send("attach s1"); err != nil {
		t.Fatal(err)
	}
	c.Close()
	// The server detaches the handle when the connection goes away.
	deadline := 200
	for i := 0; ; i++ {
		r.mu.Lock()
		d := r.detaches
		r.mu.Unlock()
		if d == 1 {
			break
		}
		if i >= deadline {
			t.Fatalf("detaches = %d after disconnect, want 1", d)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
