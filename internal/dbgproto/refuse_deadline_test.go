// Regression tests for the capacity-refusal write deadline: the refusal
// path used to hardcode a 5s SetWriteDeadline, silently overriding the
// server's configured WriteTimeout — including WriteTimeout<0, the "no
// deadline" setting every served response already honored via pickLimit.
package dbgproto

import (
	"bytes"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeAddr satisfies net.Addr for the in-memory conn.
type fakeAddr struct{}

func (fakeAddr) Network() string { return "fake" }
func (fakeAddr) String() string  { return "fake" }

// deadlineConn is an in-memory net.Conn that records every write-deadline
// the server sets and captures what it writes. Reads block until Close so
// a served connection holds its slot for the duration of the test.
type deadlineConn struct {
	mu        sync.Mutex
	wrote     bytes.Buffer
	deadlines []time.Time
	closed    chan struct{}
	closeOnce sync.Once
}

func newDeadlineConn() *deadlineConn { return &deadlineConn{closed: make(chan struct{})} }

func (c *deadlineConn) Read(p []byte) (int, error) { <-c.closed; return 0, net.ErrClosed }
func (c *deadlineConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wrote.Write(p)
}
func (c *deadlineConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return nil
}
func (c *deadlineConn) LocalAddr() net.Addr               { return fakeAddr{} }
func (c *deadlineConn) RemoteAddr() net.Addr              { return fakeAddr{} }
func (c *deadlineConn) SetDeadline(t time.Time) error     { return nil }
func (c *deadlineConn) SetReadDeadline(t time.Time) error { return nil }
func (c *deadlineConn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.deadlines = append(c.deadlines, t)
	return nil
}

func (c *deadlineConn) snapshot() (string, []time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wrote.String(), append([]time.Time(nil), c.deadlines...)
}

// fakeListener hands the server a fixed sequence of conns, then blocks
// until closed.
type fakeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newFakeListener(conns ...net.Conn) *fakeListener {
	l := &fakeListener{conns: make(chan net.Conn, len(conns)), done: make(chan struct{})}
	for _, c := range conns {
		l.conns <- c
	}
	return l
}

func (l *fakeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}
func (l *fakeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}
func (l *fakeListener) Addr() net.Addr { return fakeAddr{} }

// refuseOn runs srv over two fake conns — the first holds the only slot,
// the second is refused — and returns the refused conn after its refusal
// has been written.
func refuseOn(t *testing.T, srv *Server) *deadlineConn {
	t.Helper()
	srv.MaxConns = 1
	held, refused := newDeadlineConn(), newDeadlineConn()
	l := newFakeListener(held, refused)
	t.Cleanup(func() { l.Close(); held.Close() })
	go srv.Serve(l)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if wrote, _ := refused.snapshot(); strings.Contains(wrote, "connection capacity") {
			return refused
		}
		time.Sleep(time.Millisecond)
	}
	wrote, _ := refused.snapshot()
	t.Fatalf("refusal never written; refused conn saw %q", wrote)
	return nil
}

func TestRefusalHonorsConfiguredWriteTimeout(t *testing.T) {
	start := time.Now()
	refused := refuseOn(t, &Server{WriteTimeout: 250 * time.Millisecond})
	_, deadlines := refused.snapshot()
	if len(deadlines) != 1 {
		t.Fatalf("refused conn saw %d write deadlines, want 1", len(deadlines))
	}
	// The deadline must reflect the configured 250ms, not the old
	// hardcoded 5s.
	if d := deadlines[0].Sub(start); d <= 0 || d > 2*time.Second {
		t.Fatalf("refusal write deadline %v after start, want ~250ms", d)
	}
}

func TestRefusalHonorsNoDeadline(t *testing.T) {
	// WriteTimeout < 0 means "no deadline" on every served response;
	// the refusal path must not impose one either.
	refused := refuseOn(t, &Server{WriteTimeout: -1})
	wrote, deadlines := refused.snapshot()
	if len(deadlines) != 0 {
		t.Fatalf("refused conn saw write deadlines %v, want none with WriteTimeout<0", deadlines)
	}
	if !strings.Contains(wrote, "ERR server at connection capacity") {
		t.Fatalf("refusal body = %q", wrote)
	}
}
