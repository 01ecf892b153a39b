// Package dbgproto is the wire protocol between the debugger core (the
// tool process) and its front end, mirroring the paper's §4 architecture:
// the GUI runs in a third process and talks to the debugger over TCP,
// exchanging small packets of text rather than images.
//
// Requests are single lines. Responses are a status line ("OK" or
// "ERR <message>"), any number of body lines, and a terminating "." line.
package dbgproto

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dejavu/internal/debugger"
	"dejavu/internal/obs"
)

// Hardening defaults. A debug server lives next to a replay worth hours of
// reproduction work; one hung or hostile front end must not take it down.
const (
	DefaultMaxConns     = 8
	DefaultIdleTimeout  = 10 * time.Minute
	DefaultWriteTimeout = 30 * time.Second
)

// Server exposes one Debugger over a listener. Commands execute serially.
// Connections beyond MaxConns are refused with an error response; an idle
// or unwritable connection is dropped at its deadline; a panic while
// executing a command is returned as an ERR response instead of killing
// the process.
type Server struct {
	// D is the debugger served, flat or journal-backed. A journal-backed
	// one re-seeds from durable checkpoints inside D itself, so D stays
	// valid across travel; its VM is read under the command lock (see
	// Locked), never cached across commands.
	D *debugger.Debugger

	// Resolver, when set, switches the server into multi-session mode: a
	// connection's first useful command is `attach <session-id>`, and every
	// later command executes against that session under ITS lock (and the
	// pool's worker budget) rather than the server-wide command mutex, so
	// commands on different sessions proceed concurrently. D is ignored
	// when Resolver is set.
	Resolver SessionResolver

	// Obs, when set, receives service metrics: connections (accepted,
	// refused, active, deadline drops) and per-command counts and latency.
	// Metric collection happens outside the command lock's protected state
	// and never touches the VM, so an observed session replays identically
	// to a bare one.
	Obs *obs.Registry

	MaxConns     int           // concurrent connections (0 = DefaultMaxConns, <0 = unlimited)
	IdleTimeout  time.Duration // per-read deadline (0 = DefaultIdleTimeout, <0 = none)
	WriteTimeout time.Duration // per-response deadline (0 = DefaultWriteTimeout, <0 = none)

	mu       sync.Mutex
	active   atomic.Int32
	initOnce sync.Once
	m        serverMetrics
}

// serverMetrics holds the server's obs series; all nil-safe no-ops when
// Obs is unset.
type serverMetrics struct {
	conns    *obs.Counter   // connections accepted
	refused  *obs.Counter   // connections refused at capacity
	active   *obs.Gauge     // connections currently open
	drops    *obs.Counter   // connections dropped at an idle/write deadline
	commands *obs.Counter   // commands executed
	cmdErrs  *obs.Counter   // commands answered with ERR
	latency  *obs.Histogram // per-command execution time
}

func (s *Server) metrics() *serverMetrics {
	s.initOnce.Do(func() {
		s.m = serverMetrics{
			conns:    s.Obs.Counter("dv_dbg_connections_total"),
			refused:  s.Obs.Counter("dv_dbg_connections_refused_total"),
			active:   s.Obs.Gauge("dv_dbg_connections_active"),
			drops:    s.Obs.Counter("dv_dbg_deadline_drops_total"),
			commands: s.Obs.Counter("dv_dbg_commands_total"),
			cmdErrs:  s.Obs.Counter("dv_dbg_command_errors_total"),
			latency:  s.Obs.Histogram("dv_dbg_command_seconds"),
		}
	})
	return &s.m
}

// SessionResolver maps session IDs to attachable debugging sessions. The
// multi-tenant session manager implements it; the interface lives here so
// the protocol layer needs no dependency on session storage.
type SessionResolver interface {
	// AttachSession resolves id to a handle for command execution. A
	// failure (unknown id, killed session, admission refusal) is returned
	// as an error whose message is shown to the client verbatim.
	AttachSession(id string) (SessionHandle, error)
}

// SessionHandle executes commands against one attached session.
type SessionHandle interface {
	// Exec runs f against the session's debugger under the session's
	// command lock and the pool's worker budget. f must not keep d (or its
	// VM) past the call. Exec may refuse with a structured error when the
	// session is killed or the budget is exhausted.
	Exec(f func(d *debugger.Debugger) error) error
	// Detach releases the attachment (connection closed or re-attached).
	Detach()
}

func pickLimit[T int | time.Duration](v, def T) T {
	switch {
	case v == 0:
		return def
	case v < 0:
		return 0 // explicit "unlimited"
	default:
		return v
	}
}

// Locked runs f while holding the command-serialization lock, so external
// code (e.g. a shutdown handler snapshotting the VM) can act between
// debugger commands, never during one.
func (s *Server) Locked(f func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f()
}

// Serve accepts connections until the listener closes.
func (s *Server) Serve(l net.Listener) {
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		m := s.metrics()
		if max := pickLimit(s.MaxConns, DefaultMaxConns); max > 0 && s.active.Load() >= int32(max) {
			m.refused.Inc()
			s.refuse(conn)
			continue
		}
		s.active.Add(1)
		m.conns.Inc()
		m.active.Inc()
		go func() {
			defer func() {
				s.active.Add(-1)
				m.active.Dec()
			}()
			s.serveConn(conn)
		}()
	}
}

// refuse answers an over-capacity connection with a protocol-shaped error
// so the client reports something better than a hangup. The refusal write
// honors the server's configured WriteTimeout — this path used to hardcode
// a 5s deadline, so a server configured with no write deadline (<0) could
// still drop a slow client mid-refusal.
func (s *Server) refuse(conn net.Conn) {
	defer conn.Close()
	if write := pickLimit(s.WriteTimeout, DefaultWriteTimeout); write > 0 {
		conn.SetWriteDeadline(time.Now().Add(write))
	}
	fmt.Fprintf(conn, "ERR server at connection capacity\n.\n")
}

func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	// A panic in the connection plumbing drops this connection only.
	defer func() { recover() }()
	// Multi-session mode: the connection's attachment, set by `attach`.
	var h SessionHandle
	defer func() {
		if h != nil {
			h.Detach()
		}
	}()
	sc := bufio.NewScanner(conn)
	w := bufio.NewWriter(conn)
	idle := pickLimit(s.IdleTimeout, DefaultIdleTimeout)
	write := pickLimit(s.WriteTimeout, DefaultWriteTimeout)
	for {
		if idle > 0 {
			conn.SetReadDeadline(time.Now().Add(idle))
		}
		if !sc.Scan() {
			if ne, ok := sc.Err().(net.Error); ok && ne.Timeout() {
				s.metrics().drops.Inc()
			}
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if write > 0 {
			conn.SetWriteDeadline(time.Now().Add(write))
		}
		if line == "quit" {
			fmt.Fprintf(w, "OK\nbye\n.\n")
			w.Flush()
			return
		}
		body, err := s.execute(line, &h)
		if err != nil {
			fmt.Fprintf(w, "ERR %s\n.\n", strings.ReplaceAll(err.Error(), "\n", " "))
		} else {
			fmt.Fprintf(w, "OK\n")
			if body != "" {
				w.WriteString(strings.TrimRight(body, "\n"))
				w.WriteString("\n")
			}
			fmt.Fprintf(w, ".\n")
		}
		if werr := w.Flush(); werr != nil {
			if ne, ok := werr.(net.Error); ok && ne.Timeout() {
				s.metrics().drops.Inc()
			}
			return
		}
	}
}

// execute runs one command. A panic inside a command surfaces as an error
// response: the session survives, and the message names the command so the
// defect is findable.
func (s *Server) execute(line string, h *SessionHandle) (body string, err error) {
	m := s.metrics()
	m.commands.Inc()
	start := time.Now()
	fields := strings.Fields(line)
	defer func() {
		if r := recover(); r != nil {
			body = ""
			err = fmt.Errorf("internal error executing %q: %v", fields[0], r)
		}
		m.latency.ObserveSince(start)
		if err != nil {
			m.cmdErrs.Inc()
		}
	}()
	if s.Resolver != nil {
		return s.executeSession(fields, h)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return runCommand(s.D, fields)
}

// executeSession dispatches one command in multi-session mode: `attach`
// binds the connection to a session; everything else runs under that
// session's lock via its handle. The server-wide mutex is NOT held, so
// sessions execute concurrently up to the pool's worker budget.
func (s *Server) executeSession(fields []string, h *SessionHandle) (string, error) {
	if fields[0] == "attach" {
		if len(fields) != 2 {
			return "", fmt.Errorf("usage: attach <session-id>")
		}
		nh, err := s.Resolver.AttachSession(fields[1])
		if err != nil {
			return "", err
		}
		if *h != nil {
			(*h).Detach()
		}
		*h = nh
		return fmt.Sprintf("attached %s", fields[1]), nil
	}
	if fields[0] == "help" {
		return helpText, nil
	}
	if *h == nil {
		return "", fmt.Errorf("no session attached (use: attach <session-id>)")
	}
	var body string
	err := (*h).Exec(func(d *debugger.Debugger) error {
		var cerr error
		body, cerr = runCommand(d, fields)
		return cerr
	})
	return body, err
}

// runCommand executes one already-tokenized command against a debugger.
// The caller holds whatever lock serializes commands for that debugger.
func runCommand(d *debugger.Debugger, fields []string) (string, error) {
	switch fields[0] {
	case "break":
		if len(fields) != 3 {
			return "", fmt.Errorf("usage: break <Class.method> <pc>")
		}
		pc, err := strconv.Atoi(fields[2])
		if err != nil {
			return "", err
		}
		n, err := d.BreakAt(fields[1], pc)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("breakpoint #%d set", n), nil
	case "breakline":
		if len(fields) != 3 {
			return "", fmt.Errorf("usage: breakline <Class.method> <line>")
		}
		ln, err := strconv.Atoi(fields[2])
		if err != nil {
			return "", err
		}
		n, err := d.BreakAtLine(fields[1], ln)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("breakpoint #%d set", n), nil
	case "clear":
		if len(fields) != 2 {
			return "", fmt.Errorf("usage: clear <n>")
		}
		n, err := strconv.Atoi(fields[1])
		if err != nil {
			return "", err
		}
		if !d.ClearBreakpoint(n) {
			return "", fmt.Errorf("no breakpoint #%d", n)
		}
		return "cleared", nil
	case "breakpoints":
		return strings.Join(d.Breakpoints(), "\n"), nil
	case "continue":
		reason, err := d.Continue()
		if err != nil {
			return "", err
		}
		return "stopped: " + reason.String() + "\n" + d.Status(), nil
	case "step":
		n := 1
		if len(fields) > 1 {
			v, err := strconv.Atoi(fields[1])
			if err != nil {
				return "", err
			}
			n = v
		}
		reason, err := d.StepInstr(n)
		if err != nil {
			return "", err
		}
		return "stopped: " + reason.String() + "\n" + d.Status(), nil
	case "status":
		return d.Status(), nil
	case "stack":
		tid := 0
		if len(fields) > 1 {
			v, err := strconv.Atoi(fields[1])
			if err != nil {
				return "", err
			}
			tid = v
		}
		return d.StackTrace(tid)
	case "threads":
		return d.ThreadList()
	case "print":
		if len(fields) != 2 {
			return "", fmt.Errorf("usage: print <Class.static>")
		}
		return d.PrintStatic(fields[1])
	case "set":
		if len(fields) != 3 {
			return "", fmt.Errorf("usage: set <Class.static> <value>")
		}
		v, err := strconv.ParseInt(fields[2], 10, 64)
		if err != nil {
			return "", err
		}
		if err := d.SetStatic(fields[1], v); err != nil {
			return "", err
		}
		return "modified — replay accuracy is no longer guaranteed (§3.2)", nil
	case "disasm":
		return d.Disassembly()
	case "travel":
		if len(fields) != 2 {
			return "", fmt.Errorf("usage: travel <event>")
		}
		ev, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return "", err
		}
		if err := d.TravelTo(ev); err != nil {
			return "", err
		}
		return d.Status(), nil
	case "save":
		if len(fields) != 2 {
			return "", fmt.Errorf("usage: save <file>")
		}
		blob, err := d.VM.AppendCheckpoint(nil)
		if err != nil {
			return "", err
		}
		if err := os.WriteFile(fields[1], blob, 0o644); err != nil {
			return "", err
		}
		return fmt.Sprintf("checkpoint at event %d -> %s (%d bytes); resume with dvserve -restore",
			d.VM.Events(), fields[1], len(blob)), nil
	case "heap":
		return d.HeapSummary()
	case "inspect":
		if len(fields) != 2 {
			return "", fmt.Errorf("usage: inspect <addr>")
		}
		a, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return "", err
		}
		return d.InspectObject(a)
	case "output":
		return string(d.VM.Output()), nil
	case "help":
		return helpText, nil
	default:
		return "", fmt.Errorf("unknown command %q (try help)", fields[0])
	}
}

const helpText = `commands:
  attach <session-id>           bind this connection to a session (multi-tenant server)
  break <Class.method> <pc>     set breakpoint at bytecode offset
  breakline <Class.method> <n>  set breakpoint at source line
  clear <n>                     remove breakpoint #n
  breakpoints                   list breakpoints
  continue                      run to next breakpoint or end
  step [n]                      execute n instructions (default 1)
  status                        show stop location and replay countdown
  stack [tid]                   stack trace via remote reflection
  threads                       thread viewer
  print <Class.static>          read a static via remote reflection
  set <Class.static> <value>    modify a static (taints the session, §3.2)
  disasm                        disassemble current method
  travel <event>                time-travel to an event count
  save <file>                   write a checkpoint file (resume via dvserve -restore)
  heap                          per-type heap statistics
  inspect <addr>                show an object's fields via remote reflection
  output                        program output so far
  quit                          disconnect`

// Client is a front-end connection.
type Client struct {
	conn net.Conn
	r    *bufio.Reader
	mu   sync.Mutex
}

// Dial connects to a debug server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn, r: bufio.NewReader(conn)}, nil
}

// Close disconnects.
func (c *Client) Close() error { return c.conn.Close() }

// Send issues one command and returns the response body.
func (c *Client) Send(cmd string) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := fmt.Fprintf(c.conn, "%s\n", cmd); err != nil {
		return "", err
	}
	status, err := c.r.ReadString('\n')
	if err != nil {
		return "", err
	}
	status = strings.TrimRight(status, "\n")
	var body strings.Builder
	for {
		line, err := c.r.ReadString('\n')
		if err != nil {
			return "", err
		}
		if strings.TrimRight(line, "\n") == "." {
			break
		}
		body.WriteString(line)
	}
	if strings.HasPrefix(status, "ERR ") {
		return "", &RemoteError{Msg: strings.TrimPrefix(status, "ERR ")}
	}
	return body.String(), nil
}

// RemoteError is a server-reported command failure ("ERR ..."): the
// connection itself is healthy, so a reconnecting client must not treat it
// as transport loss.
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return e.Msg }

// Reconnecting is a Client that survives server restarts and dropped
// connections: a transport failure closes the connection, redials with
// capped exponential backoff, and retries the command once. Each backoff
// step is jittered ±20% so a fleet of clients cut off by one server
// restart doesn't redial in lockstep and hammer the listener in
// synchronized waves. Command failures the server reports (RemoteError)
// pass through untouched.
type Reconnecting struct {
	Addr string

	MaxAttempts int                              // dial attempts per (re)connect; 0 = 6
	BaseDelay   time.Duration                    // first backoff step; 0 = 100ms
	MaxDelay    time.Duration                    // backoff cap; 0 = 3s
	Logf        func(format string, args ...any) // optional reconnect notices
	// JitterSeed seeds the backoff jitter deterministically (tests); 0
	// derives a per-client seed from the clock.
	JitterSeed int64

	mu  sync.Mutex
	c   *Client
	rnd *rand.Rand
}

// jitter spreads d over [0.8d, 1.2d). Callers hold r.mu (or own r
// exclusively, as connect's callers do).
func (r *Reconnecting) jitter(d time.Duration) time.Duration {
	if r.rnd == nil {
		seed := r.JitterSeed
		if seed == 0 {
			seed = time.Now().UnixNano()
		}
		r.rnd = rand.New(rand.NewSource(seed))
	}
	return time.Duration(float64(d) * (0.8 + 0.4*r.rnd.Float64()))
}

// DialRetry connects to a debug server with backoff, returning a client
// that keeps reconnecting across transport failures. logf (optional)
// receives human-readable retry notices.
func DialRetry(addr string, logf func(string, ...any)) (*Reconnecting, error) {
	r := &Reconnecting{Addr: addr, Logf: logf}
	if err := r.connect(); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *Reconnecting) connect() error {
	attempts := r.MaxAttempts
	if attempts <= 0 {
		attempts = 6
	}
	delay := r.BaseDelay
	if delay <= 0 {
		delay = 100 * time.Millisecond
	}
	maxDelay := r.MaxDelay
	if maxDelay <= 0 {
		maxDelay = 3 * time.Second
	}
	var err error
	for i := 0; i < attempts; i++ {
		var c *Client
		if c, err = Dial(r.Addr); err == nil {
			r.c = c
			return nil
		}
		if i == attempts-1 {
			break
		}
		sleep := r.jitter(delay)
		if r.Logf != nil {
			r.Logf("connect %s failed (%v); retrying in %v", r.Addr, err, sleep)
		}
		time.Sleep(sleep)
		if delay *= 2; delay > maxDelay {
			delay = maxDelay
		}
	}
	return fmt.Errorf("dbgproto: %s unreachable after %d attempts: %w", r.Addr, attempts, err)
}

// Send issues one command, transparently reconnecting (and retrying the
// command once) if the transport fails under it.
func (r *Reconnecting) Send(cmd string) (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.c == nil {
		if err := r.connect(); err != nil {
			return "", err
		}
	}
	body, err := r.c.Send(cmd)
	if err == nil {
		return body, nil
	}
	if _, isRemote := err.(*RemoteError); isRemote {
		return "", err
	}
	// Transport loss: drop the dead connection, redial, retry once.
	r.c.Close()
	r.c = nil
	if r.Logf != nil {
		r.Logf("connection to %s lost (%v); reconnecting", r.Addr, err)
	}
	if cerr := r.connect(); cerr != nil {
		return "", fmt.Errorf("connection lost (%v); %w", err, cerr)
	}
	return r.c.Send(cmd)
}

// Close shuts the current connection, if any.
func (r *Reconnecting) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.c == nil {
		return nil
	}
	err := r.c.Close()
	r.c = nil
	return err
}
