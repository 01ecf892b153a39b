// Package ptrace provides read-only access to a (possibly remote) VM's
// heap memory — the stand-in for the Unix ptrace facility the paper's
// remote reflection builds on (§3.2).
//
// The essential property is preserved: the application VM executes no code
// to answer a peek. The in-process implementation reads the heap bytes
// directly; the TCP implementation has a tiny server goroutine copy bytes
// out, which stands in for the operating system servicing ptrace — the
// interpreted program itself never runs.
package ptrace

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dejavu/internal/heap"
	"dejavu/internal/obs"
)

// Mem is the remote-memory interface: fill buf from addr.
type Mem interface {
	Peek(addr heap.Addr, buf []byte) error
}

// Local peeks an in-process heap directly.
type Local struct {
	H *heap.Heap
}

// Peek implements Mem.
func (l Local) Peek(addr heap.Addr, buf []byte) error {
	return l.H.ReadBytes(addr, buf)
}

// Counting wraps a Mem and counts operations and bytes, for the remote
// reflection latency experiments.
type Counting struct {
	Inner Mem
	Peeks uint64
	Bytes uint64
}

// Peek implements Mem.
func (c *Counting) Peek(addr heap.Addr, buf []byte) error {
	c.Peeks++
	c.Bytes += uint64(len(buf))
	return c.Inner.Peek(addr, buf)
}

// RootSource publishes the current addresses of the mapped roots (the
// VM_Dictionary and the thread registry). It is the analog of the paper's
// boot-image record: the fixed place a tool learns where reflection
// starts. Reading it executes no interpreted code.
type RootSource interface {
	Roots() (dict, threads heap.Addr)
}

// Wire protocol: request = 'P' | addr u32 | len u32 (peek),
// 'R' | 8 zero bytes (roots), or 'A' | session u64 (attach, multi-session
// servers only). Response = status byte (0 ok, 1 error) | payload
// (requested bytes, two u32 roots, or nothing for attach on ok;
// u32-length + message on error).

// Hardening defaults, mirroring dbgproto: the peek endpoint guards the
// same long-lived replay session.
const (
	DefaultMaxConns     = 8
	DefaultIdleTimeout  = 10 * time.Minute
	DefaultWriteTimeout = 30 * time.Second
)

// Server answers peek and root requests. Connections beyond MaxConns are
// refused with a protocol error; idle or unwritable connections are
// dropped at their deadlines; a panic while servicing a request drops that
// connection only.
type Server struct {
	H     *heap.Heap
	Roots RootSource

	// Live, when set, resolves the heap and root source per request instead
	// of the static H/Roots fields, so a request never reads the heap while
	// a command (a step, a travel restoring a checkpoint) rewrites it. The
	// callback must be safe to call from the serve goroutine — dvserve
	// reads d.VM under the debug server's command lock.
	Live func() (*heap.Heap, RootSource)

	// Sessions, when set, switches the server into multi-session mode: a
	// connection must first attach ('A' | session u64), and every peek or
	// root request then resolves — and COPIES — the session's heap bytes
	// under that session's command lock, so a concurrent command, travel,
	// or kill can never leave a request reading a mutating or freed heap. H, Roots, and Live are ignored when Sessions is set.
	Sessions SessionSource

	// Obs, when set, receives peek-endpoint metrics (connections, requests,
	// bytes served, per-request latency). Peeks execute no interpreted
	// code, and neither does metric collection, so observation preserves
	// the §3.2 property.
	Obs *obs.Registry

	MaxConns     int           // concurrent connections (0 = DefaultMaxConns, <0 = unlimited)
	IdleTimeout  time.Duration // per-request read deadline (0 = DefaultIdleTimeout, <0 = none)
	WriteTimeout time.Duration // per-response deadline (0 = DefaultWriteTimeout, <0 = none)

	active   atomic.Int32
	initOnce sync.Once
	m        peekMetrics
}

// peekMetrics holds the peek server's obs series; all nil-safe no-ops
// when Obs is unset.
type peekMetrics struct {
	conns   *obs.Counter   // connections accepted
	refused *obs.Counter   // connections refused at capacity
	peeks   *obs.Counter   // peek requests served
	roots   *obs.Counter   // root requests served
	bytes   *obs.Counter   // heap bytes copied out
	errors  *obs.Counter   // requests answered with an error
	latency *obs.Histogram // per-request service time
}

func (s *Server) metrics() *peekMetrics {
	s.initOnce.Do(func() {
		s.m = peekMetrics{
			conns:   s.Obs.Counter("dv_peek_connections_total"),
			refused: s.Obs.Counter("dv_peek_connections_refused_total"),
			peeks:   s.Obs.Counter("dv_peek_requests_total"),
			roots:   s.Obs.Counter("dv_peek_root_requests_total"),
			bytes:   s.Obs.Counter("dv_peek_bytes_total"),
			errors:  s.Obs.Counter("dv_peek_errors_total"),
			latency: s.Obs.Histogram("dv_peek_request_seconds"),
		}
	})
	return &s.m
}

// SessionSource resolves numeric session IDs for multi-session peek
// serving. The session manager implements it; the interface lives here so
// the protocol layer needs no dependency on session storage.
type SessionSource interface {
	// WithSession runs f with the heap and root source of the session
	// debugger's current VM, under the session's command lock and the
	// pool's worker budget. All heap reads must happen inside f — the
	// pointers are dead the moment it returns (a travel rewrites the
	// heap; a kill drops the debugger and its VM).
	WithSession(num uint64, f func(h *heap.Heap, roots RootSource) error) error
}

// live resolves the heap and roots to serve one request against.
func (s *Server) live() (*heap.Heap, RootSource) {
	if s.Live != nil {
		return s.Live()
	}
	return s.H, s.Roots
}

// withLive routes one request's heap access: in multi-session mode through
// the attached session's lock (reads complete inside f), otherwise against
// the static or Live-resolved heap.
func (s *Server) withLive(sid uint64, attached bool, f func(h *heap.Heap, roots RootSource) error) error {
	if s.Sessions != nil {
		if !attached {
			return fmt.Errorf("no session attached (send an attach request first)")
		}
		return s.Sessions.WithSession(sid, f)
	}
	h, roots := s.live()
	return f(h, roots)
}

// Serve answers peek and root requests on l until the listener closes.
// Each connection is served sequentially on its own goroutine. This is the
// compatibility wrapper over Server with default hardening limits.
func Serve(l net.Listener, h *heap.Heap, roots RootSource) {
	(&Server{H: h, Roots: roots}).Serve(l)
}

// Serve accepts connections until the listener closes.
func (s *Server) Serve(l net.Listener) {
	max := s.MaxConns
	if max == 0 {
		max = DefaultMaxConns
	}
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		m := s.metrics()
		if max > 0 && s.active.Load() >= int32(max) {
			m.refused.Inc()
			// Honor the configured write deadline on the refusal too (this
			// used to hardcode 5s, overriding a <0 "no deadline" setting).
			if write := s.writeLimit(); write > 0 {
				conn.SetWriteDeadline(time.Now().Add(write))
			}
			writeErr(conn, "server at connection capacity")
			conn.Close()
			continue
		}
		s.active.Add(1)
		m.conns.Inc()
		go func() {
			defer s.active.Add(-1)
			s.serveConn(conn)
		}()
	}
}

// writeLimit resolves the effective per-response deadline (0 = default,
// <0 = none).
func (s *Server) writeLimit() time.Duration {
	switch {
	case s.WriteTimeout == 0:
		return DefaultWriteTimeout
	case s.WriteTimeout < 0:
		return 0
	default:
		return s.WriteTimeout
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	// A panic servicing a request costs this connection, not the VM.
	defer func() { recover() }()
	idle := s.IdleTimeout
	if idle == 0 {
		idle = DefaultIdleTimeout
	}
	write := s.writeLimit()
	m := s.metrics()
	// Multi-session mode: the connection's attached session, set by 'A'.
	var sid uint64
	var attached bool
	var hdr [9]byte
	for {
		if idle > 0 {
			conn.SetReadDeadline(time.Now().Add(idle))
		}
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			return
		}
		if write > 0 {
			conn.SetWriteDeadline(time.Now().Add(write))
		}
		start := time.Now()
		switch hdr[0] {
		case 'A':
			num := binary.LittleEndian.Uint64(hdr[1:9])
			if s.Sessions == nil {
				m.errors.Inc()
				if !writeErr(conn, "not a multi-session server") {
					return
				}
				continue
			}
			// Validate the session exists (and survives admission) before
			// binding the connection to it.
			if err := s.Sessions.WithSession(num, func(*heap.Heap, RootSource) error { return nil }); err != nil {
				m.errors.Inc()
				if !writeErr(conn, err.Error()) {
					return
				}
				continue
			}
			sid, attached = num, true
			if _, err := conn.Write([]byte{0}); err != nil {
				return
			}
		case 'R':
			// All root/heap access happens inside withLive: in
			// multi-session mode that is under the session's command lock,
			// so a concurrent kill or travel can never race the read. Only the network write happens outside.
			var d, t heap.Addr
			err := s.withLive(sid, attached, func(_ *heap.Heap, roots RootSource) error {
				if roots == nil {
					return fmt.Errorf("no root source")
				}
				d, t = roots.Roots()
				return nil
			})
			if err != nil {
				m.errors.Inc()
				if !writeErr(conn, err.Error()) {
					return
				}
				continue
			}
			var resp [9]byte
			binary.LittleEndian.PutUint32(resp[1:5], uint32(d))
			binary.LittleEndian.PutUint32(resp[5:9], uint32(t))
			if _, err := conn.Write(resp[:]); err != nil {
				return
			}
			m.roots.Inc()
			m.latency.ObserveSince(start)
		case 'P':
			addr := heap.Addr(binary.LittleEndian.Uint32(hdr[1:5]))
			n := binary.LittleEndian.Uint32(hdr[5:9])
			if n > 1<<20 {
				m.errors.Inc()
				writeErr(conn, "peek too large")
				return
			}
			buf := make([]byte, n)
			err := s.withLive(sid, attached, func(h *heap.Heap, _ RootSource) error {
				// Copy the bytes out while the lock is held; buf is ours
				// after withLive returns, whatever happens to the VM.
				return h.ReadBytes(addr, buf)
			})
			if err != nil {
				m.errors.Inc()
				if !writeErr(conn, err.Error()) {
					return
				}
				continue
			}
			if _, err := conn.Write([]byte{0}); err != nil {
				return
			}
			if _, err := conn.Write(buf); err != nil {
				return
			}
			m.peeks.Inc()
			m.bytes.Add(uint64(n))
			m.latency.ObserveSince(start)
		default:
			return
		}
	}
}

func writeErr(conn net.Conn, msg string) bool {
	var lenBuf [5]byte
	lenBuf[0] = 1
	binary.LittleEndian.PutUint32(lenBuf[1:], uint32(len(msg)))
	if _, err := conn.Write(lenBuf[:]); err != nil {
		return false
	}
	_, err := conn.Write([]byte(msg))
	return err == nil
}

// Client is a Mem over TCP.
type Client struct {
	mu   sync.Mutex
	conn net.Conn
}

// Dial connects to a peek server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn}, nil
}

// Close shuts the connection.
func (c *Client) Close() error { return c.conn.Close() }

// Peek implements Mem.
func (c *Client) Peek(addr heap.Addr, buf []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var hdr [9]byte
	hdr[0] = 'P'
	binary.LittleEndian.PutUint32(hdr[1:5], uint32(addr))
	binary.LittleEndian.PutUint32(hdr[5:9], uint32(len(buf)))
	if _, err := c.conn.Write(hdr[:]); err != nil {
		return err
	}
	var status [1]byte
	if _, err := io.ReadFull(c.conn, status[:]); err != nil {
		return err
	}
	if status[0] == 0 {
		_, err := io.ReadFull(c.conn, buf)
		return err
	}
	var lenBuf [4]byte
	if _, err := io.ReadFull(c.conn, lenBuf[:]); err != nil {
		return err
	}
	msg := make([]byte, binary.LittleEndian.Uint32(lenBuf[:]))
	if _, err := io.ReadFull(c.conn, msg); err != nil {
		return err
	}
	return fmt.Errorf("ptrace: remote peek failed: %s", msg)
}

// AttachSession binds the connection to a session on a multi-session peek
// server; later peeks and root requests resolve that session's live heap.
func (c *Client) AttachSession(num uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var hdr [9]byte
	hdr[0] = 'A'
	binary.LittleEndian.PutUint64(hdr[1:9], num)
	if _, err := c.conn.Write(hdr[:]); err != nil {
		return err
	}
	var status [1]byte
	if _, err := io.ReadFull(c.conn, status[:]); err != nil {
		return err
	}
	if status[0] == 0 {
		return nil
	}
	var lenBuf [4]byte
	if _, err := io.ReadFull(c.conn, lenBuf[:]); err != nil {
		return err
	}
	msg := make([]byte, binary.LittleEndian.Uint32(lenBuf[:]))
	if _, err := io.ReadFull(c.conn, msg); err != nil {
		return err
	}
	return fmt.Errorf("ptrace: attach failed: %s", msg)
}

// Roots fetches the remote VM's current mapped-root addresses.
func (c *Client) Roots() (dict, threads heap.Addr, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var hdr [9]byte
	hdr[0] = 'R'
	if _, err := c.conn.Write(hdr[:]); err != nil {
		return 0, 0, err
	}
	var resp [1]byte
	if _, err := io.ReadFull(c.conn, resp[:]); err != nil {
		return 0, 0, err
	}
	if resp[0] != 0 {
		var lenBuf [4]byte
		if _, err := io.ReadFull(c.conn, lenBuf[:]); err != nil {
			return 0, 0, err
		}
		msg := make([]byte, binary.LittleEndian.Uint32(lenBuf[:]))
		if _, err := io.ReadFull(c.conn, msg); err != nil {
			return 0, 0, err
		}
		return 0, 0, fmt.Errorf("ptrace: roots failed: %s", msg)
	}
	var body [8]byte
	if _, err := io.ReadFull(c.conn, body[:]); err != nil {
		return 0, 0, err
	}
	return heap.Addr(binary.LittleEndian.Uint32(body[0:4])),
		heap.Addr(binary.LittleEndian.Uint32(body[4:8])), nil
}
