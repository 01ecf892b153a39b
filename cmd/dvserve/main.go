// Command dvserve replays recorded executions under debugger control and
// serves the paper's multi-process architecture (§3, §4) over TCP:
//
//   - a debug endpoint (dbgproto) that front ends like dvdbg connect to
//   - a peek endpoint (ptrace) that serves raw memory reads for
//     out-of-process remote reflection
//   - an optional HTTP endpoint exposing Prometheus series at /metrics
//     and a liveness/position report at /healthz — sampled outside the
//     logical clock, so scraping never perturbs any replay
//
// Single-session usage (one process, one debug session):
//
//	dvserve -t trace.dvt -listen :4455 -peek :4456 <prog>
//
// The -t argument accepts a flat (DVT2) or streaming (DVS1) trace file, or
// a segmented journal directory — the latter opens a journal session that
// starts from the nearest durable checkpoint (-from-event picks the initial
// position) and time-travels from the nearest durable or in-memory one.
//
// Multi-tenant usage (one process, many sessions):
//
//	dvserve -data-root /var/lib/dejavu -http :8080 -listen :4455 -peek :4456
//
// With -data-root, dvserve becomes a session-manager platform: sessions
// are created, traveled, verified, and killed over the HTTP/JSON control
// plane (/v1/sessions...), each with its own journal under the data root,
// its own command lock, and a share of a bounded worker budget (-workers).
// The debug and peek listeners stay up but become per-session attachable
// (dbgproto `attach <id>`, ptrace 'A' request). Admission control refuses
// over-capacity creates with structured reasons; /metrics exports the
// per-pool series (active sessions, admissions, rejections, durable
// checkpoint restores, worker occupancy).
//
// All listeners are bound before any of them starts serving: a bind
// failure on any endpoint aborts startup with nothing half-started.
//
// SIGINT/SIGTERM shut the server down gracefully. Single-session mode
// checkpoints to -exit-save so `dvserve -restore` resumes. Multi-tenant
// mode first stops admissions, then writes an -exit-save checkpoint into
// every live session's directory under that session's lock — no checkpoint
// is ever half a command, even when many sessions exit together — and only
// then closes the listeners.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dejavu/internal/cli"
	"dejavu/internal/core"
	"dejavu/internal/dbgproto"
	"dejavu/internal/debugger"
	"dejavu/internal/faults/chaosfs"
	"dejavu/internal/heap"
	"dejavu/internal/obs"
	"dejavu/internal/ptrace"
	"dejavu/internal/sessions"
	"dejavu/internal/trace"
	"dejavu/internal/vm"
)

type serveConfig struct {
	prog       string
	traceIn    string
	listen     string
	peek       string
	metrics    string
	checkpoint uint64
	fromEvent  uint64
	restore    string
	exitSave   string

	// Multi-tenant mode (enabled by -data-root).
	dataRoot        string
	httpAddr        string
	maxSessions     int
	maxPerTenant    int
	workers         int
	admitTimeout    time.Duration
	retain          time.Duration
	maxSessionBytes int64

	// Fault containment and backpressure.
	chaos            string
	diskLow          int64
	diskCritical     int64
	tenantRate       float64
	tenantBurst      int
	breakerThreshold int
	breakerCooldown  time.Duration
	retryBase        time.Duration
	retryMax         time.Duration
}

func main() {
	var c serveConfig
	flag.StringVar(&c.traceIn, "t", "trace.dvt", "trace input: a .dvt/.dvs file or a segmented journal directory (single-session mode)")
	flag.StringVar(&c.listen, "listen", "127.0.0.1:4455", "debug protocol address")
	flag.StringVar(&c.peek, "peek", "127.0.0.1:4456", "ptrace peek address (empty to disable)")
	flag.StringVar(&c.metrics, "metrics", "", "HTTP observability address serving /metrics and /healthz (empty to disable)")
	flag.Uint64Var(&c.checkpoint, "checkpoint", 25000, "instructions per time-travel checkpoint (0 disables)")
	flag.Uint64Var(&c.fromEvent, "from-event", 0, "initial replay position; journal traces start from the nearest durable checkpoint")
	flag.StringVar(&c.restore, "restore", "", "resume from a checkpoint file (written by the debugger's save command)")
	flag.StringVar(&c.exitSave, "exit-save", "", "on SIGINT/SIGTERM, write a checkpoint before exiting: a file path (single-session), or a file name written into every live session's directory (multi-tenant)")
	flag.StringVar(&c.dataRoot, "data-root", "", "session storage root; enables the multi-tenant session manager")
	flag.StringVar(&c.httpAddr, "http", "", "HTTP control-plane address (/v1/sessions, /metrics, /healthz); required with -data-root unless -metrics is set")
	flag.IntVar(&c.maxSessions, "max-sessions", 0, "pool-wide session cap (0 = 128)")
	flag.IntVar(&c.maxPerTenant, "max-per-tenant", 0, "per-tenant session cap (0 = 16, -1 = unlimited)")
	flag.IntVar(&c.workers, "workers", 0, "concurrent command budget shared by all sessions (0 = 8)")
	flag.DurationVar(&c.admitTimeout, "admit-timeout", 0, "max wait for a worker slot before a busy refusal (0 = 5s)")
	flag.DurationVar(&c.retain, "retain", 0, "retention age for killed/orphaned session storage; a periodic sweep removes older directories (0 disables)")
	flag.Int64Var(&c.maxSessionBytes, "max-session-bytes", 0, "per-session journal byte quota at record time; exceeding it refuses the create with 413 (0 = unlimited)")
	flag.StringVar(&c.chaos, "chaos", "", "TEST HOOK: inject storage faults into every session's journal I/O; spec like 'enospc:after=200,count=50;slow:latency=1ms' (kinds: enospc, eio, fsync, torn-rename, slow)")
	flag.Int64Var(&c.diskLow, "disk-low", 0, "low free-space watermark in bytes: below it new recordings are refused with 503 (0 disables)")
	flag.Int64Var(&c.diskCritical, "disk-critical", 0, "critical free-space watermark in bytes: below it ingest is refused too (0 disables)")
	flag.Float64Var(&c.tenantRate, "tenant-rate", 0, "per-tenant create/ingest rate limit in requests/second (0 disables)")
	flag.IntVar(&c.tenantBurst, "tenant-burst", 0, "per-tenant rate-limit burst (0 = max(1, ceil(rate)))")
	flag.IntVar(&c.breakerThreshold, "breaker-threshold", 0, "consecutive replay stalls before a session's exec circuit breaker opens (0 = 3, -1 disables)")
	flag.DurationVar(&c.breakerCooldown, "breaker-cooldown", 0, "open interval before a tripped breaker half-opens (0 = 5s)")
	flag.DurationVar(&c.retryBase, "retry-base", 0, "degraded-session repair backoff base (0 = 200ms)")
	flag.DurationVar(&c.retryMax, "retry-max", 0, "degraded-session repair backoff cap (0 = 5s)")
	flag.Parse()
	if c.dataRoot != "" {
		if flag.NArg() != 0 {
			fmt.Fprintln(os.Stderr, "usage: dvserve -data-root DIR -http ADDR [flags]   (programs are chosen per session; no positional args)")
			os.Exit(2)
		}
		if c.httpAddr == "" {
			c.httpAddr = c.metrics
		}
		if c.httpAddr == "" {
			fmt.Fprintln(os.Stderr, "dvserve: -data-root requires -http (the session control plane)")
			os.Exit(2)
		}
		if err := runMulti(c); err != nil {
			fmt.Fprintln(os.Stderr, "dvserve:", err)
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: dvserve [flags] <prog>")
		os.Exit(2)
	}
	c.prog = flag.Arg(0)
	if err := run(c); err != nil {
		fmt.Fprintln(os.Stderr, "dvserve:", err)
		os.Exit(1)
	}
}

// runMulti boots the multi-tenant session-manager platform: session
// registry over -data-root, HTTP control plane, and per-session attachable
// debug/peek endpoints.
func runMulti(c serveConfig) error {
	reg := obs.NewRegistry()
	cfg := sessions.Config{
		DataRoot:          c.dataRoot,
		MaxSessions:       c.maxSessions,
		MaxPerTenant:      c.maxPerTenant,
		Workers:           c.workers,
		AdmitTimeout:      c.admitTimeout,
		CheckpointEvery:   c.checkpoint,
		Obs:               reg,
		MaxSessionBytes:   c.maxSessionBytes,
		DiskLowBytes:      c.diskLow,
		DiskCriticalBytes: c.diskCritical,
		TenantRatePerSec:  c.tenantRate,
		TenantBurst:       c.tenantBurst,
		BreakerThreshold:  c.breakerThreshold,
		BreakerCooldown:   c.breakerCooldown,
		RetryBase:         c.retryBase,
		RetryMax:          c.retryMax,
	}
	if c.chaos != "" {
		st, err := chaosfs.Parse(c.chaos)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "dvserve: CHAOS ACTIVE: injecting %s into all session journal I/O\n", st)
		cfg.WrapFS = func(_ string, fs trace.FS) trace.FS { return st.Wrap(fs) }
	}
	mgr, err := sessions.NewManager(cfg)
	if err != nil {
		return err
	}
	if c.retain > 0 {
		// Retention sweep: killed-and-condemned session directories, crash
		// leftovers, and orphaned flush temp dirs age out. The sweep runs a
		// few times per retention period and skips itself entirely while any
		// flight flush is writing.
		interval := c.retain / 4
		if interval < time.Second {
			interval = time.Second
		}
		if interval > time.Minute {
			interval = time.Minute
		}
		go func() {
			t := time.NewTicker(interval)
			defer t.Stop()
			for range t.C {
				if n := mgr.GC(c.retain); n > 0 {
					fmt.Fprintf(os.Stderr, "dvserve: retention sweep removed %d director(ies)\n", n)
				}
			}
		}()
	}
	if n := len(mgr.List()); n > 0 {
		fmt.Fprintf(os.Stderr, "data root %s: %d cold session(s) registered\n", c.dataRoot, n)
	}

	// Bind everything before serving anything (same invariant as
	// single-session mode: no half-started server).
	var listeners []net.Listener
	closeAll := func() {
		for _, l := range listeners {
			l.Close()
		}
	}
	bind := func(addr string) (net.Listener, error) {
		l, err := net.Listen("tcp", addr)
		if err != nil {
			closeAll()
			return nil, err
		}
		listeners = append(listeners, l)
		return l, nil
	}
	var pl net.Listener
	if c.peek != "" {
		if pl, err = bind(c.peek); err != nil {
			return err
		}
	}
	dl, err := bind(c.listen)
	if err != nil {
		return err
	}
	hl, err := bind(c.httpAddr)
	if err != nil {
		return err
	}
	defer closeAll()

	// Connection caps scale with the pool: every session may hold a debug
	// and a peek connection at once.
	maxConns := mgr.MaxSessions() * 2
	srv := &dbgproto.Server{Resolver: mgr, Obs: reg, MaxConns: maxConns}
	if pl != nil {
		ps := &ptrace.Server{Sessions: mgr, Obs: reg, MaxConns: maxConns}
		go ps.Serve(pl)
		fmt.Fprintf(os.Stderr, "peek endpoint on %s (multi-session: attach first)\n", pl.Addr())
	}
	mux := http.NewServeMux()
	mgr.Routes(mux)
	mux.HandleFunc("POST /v1/ingest", ingestHandler(c.dataRoot, reg, mgr.AdmitIngest))
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		obs.WritePrometheus(w, reg.Snapshot())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		counts := map[string]int{}
		for _, in := range mgr.List() {
			counts[in.State]++
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{
			"alive":        true,
			"multi_tenant": true,
			"draining":     mgr.Draining(),
			"sessions":     counts,
		})
	})
	go (&http.Server{Handler: mux}).Serve(hl)
	fmt.Fprintf(os.Stderr, "control plane on http://%s/v1/sessions (metrics at /metrics)\n", hl.Addr())
	fmt.Fprintf(os.Stderr, "debug endpoint on %s — connect with: dvdbg -connect %s -session <id>\n", dl.Addr(), dl.Addr())

	// Graceful shutdown: stop admissions first, checkpoint every live
	// session under its own lock, then close listeners — a fleet of
	// sessions exiting together never tears a checkpoint.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigc)
	go func() {
		sig, ok := <-sigc
		if !ok {
			return
		}
		fmt.Fprintf(os.Stderr, "dvserve: %v: draining %d session(s)\n", sig, len(mgr.List()))
		saved := mgr.Drain(c.exitSave)
		if c.exitSave != "" {
			fmt.Fprintf(os.Stderr, "dvserve: checkpointed %d session(s) to %s\n", len(saved), c.exitSave)
		}
		closeAll()
	}()

	srv.Serve(dl)
	return nil
}

func run(c serveConfig) error {
	prog, err := cli.LoadProgram(c.prog)
	if err != nil {
		return err
	}
	img, err := vm.NewImage(prog)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()

	// The trace argument selects the session shape: a directory is a
	// segmented journal (travel restores its durable checkpoints into the
	// debugger's VM), a file is a flat trace.
	var d *debugger.Debugger
	if st, serr := os.Stat(c.traceIn); serr == nil && st.IsDir() {
		if c.restore != "" {
			return fmt.Errorf("-restore does not apply to a journal directory; use -from-event to position the session")
		}
		fs, err := trace.NewDirFS(c.traceIn)
		if err != nil {
			return err
		}
		if d, err = debugger.OpenJournal(img, fs, c.fromEvent, reg); err != nil {
			return err
		}
		state := "complete"
		if !d.Journal().Complete() {
			state = "crash-cut (partial-trace mode)"
		}
		fmt.Fprintf(os.Stderr, "journal %s: %s, session at event %d\n", c.traceIn, state, d.VM.Events())
	} else {
		traceBytes, err := os.ReadFile(c.traceIn)
		if err != nil {
			return err
		}
		eng, _, err := cli.BuildEngine(img, cli.EngineFlags{Mode: core.ModeReplay, TraceIn: traceBytes, Obs: reg})
		if err != nil {
			return err
		}
		m, err := vm.Load(img, vm.Config{Engine: eng, Stdout: os.Stdout})
		if err != nil {
			return err
		}
		if c.restore != "" {
			blob, err := os.ReadFile(c.restore)
			if err != nil {
				return err
			}
			if err := m.RestoreBytes(blob); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "resumed from %s at event %d\n", c.restore, m.Events())
		}
		d = debugger.New(m)
	}
	d.CheckpointEvery = c.checkpoint
	if d.Journal() == nil && c.fromEvent > 0 {
		// A journal-backed debugger opened at -from-event already.
		if err := d.TravelTo(c.fromEvent); err != nil {
			return err
		}
	}

	// Every endpoint reads d.VM under the command lock, so no read sees a
	// step or a travel's checkpoint restore half done.
	srv := &dbgproto.Server{D: d, Obs: reg}

	// Bind every listener before any of them starts serving. Binding and
	// serving used to interleave, so a late bind failure (debug port taken)
	// left the peek endpoint live on a server that then exited — clients
	// could connect to a half-started server. Now a failure on any bind
	// closes the already-bound listeners and nothing ever accepts.
	var listeners []net.Listener
	closeAll := func() {
		for _, l := range listeners {
			l.Close()
		}
	}
	var pl net.Listener
	if c.peek != "" {
		if pl, err = net.Listen("tcp", c.peek); err != nil {
			return err
		}
		listeners = append(listeners, pl)
	}
	dl, err := net.Listen("tcp", c.listen)
	if err != nil {
		closeAll()
		return err
	}
	listeners = append(listeners, dl)
	var ml net.Listener
	if c.metrics != "" {
		if ml, err = net.Listen("tcp", c.metrics); err != nil {
			closeAll()
			return err
		}
		listeners = append(listeners, ml)
	}
	defer closeAll()

	if pl != nil {
		ps := &ptrace.Server{Obs: reg}
		// Resolve the live heap under the command lock: the VM must not be
		// mid-command when captured.
		ps.Live = func() (*heap.Heap, ptrace.RootSource) {
			var h *heap.Heap
			var r ptrace.RootSource
			srv.Locked(func() { h, r = d.VM.Heap(), d.VM })
			return h, r
		}
		go ps.Serve(pl)
		fmt.Fprintf(os.Stderr, "peek endpoint on %s\n", pl.Addr())
	}
	if ml != nil {
		go (&http.Server{Handler: obsMux(srv, reg, d)}).Serve(ml)
		fmt.Fprintf(os.Stderr, "observability endpoint on http://%s/metrics\n", ml.Addr())
	}
	fmt.Fprintf(os.Stderr, "debug endpoint on %s — connect with: dvdbg -connect %s\n", dl.Addr(), dl.Addr())

	// Graceful shutdown: on a signal, first checkpoint the session (under
	// the command lock, so the VM is between commands), then close every
	// listener — Serve returns, clients get EOF rather than a reset, and
	// run() can't exit before the checkpoint is on disk.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigc)
	go func() {
		sig, ok := <-sigc
		if !ok {
			return
		}
		fmt.Fprintf(os.Stderr, "dvserve: %v: shutting down\n", sig)
		if c.exitSave != "" {
			srv.Locked(func() { saveCheckpoint(d.VM, c.exitSave) })
		}
		closeAll()
	}()

	srv.Serve(dl)
	return nil
}

// healthReport is the /healthz body: liveness plus the replay position, all
// read under the command lock so the numbers are mutually consistent.
type healthReport struct {
	Alive         bool   `json:"alive"`
	Journal       bool   `json:"journal"`
	Events        uint64 `json:"events"`
	Halted        bool   `json:"halted"`
	Tainted       bool   `json:"tainted"`
	PendingSwitch bool   `json:"pending_switch"`
	NextSwitchNYP uint64 `json:"next_switch_nyp,omitempty"`
}

// obsMux builds the observability handler. Both endpoints sample under the
// debug server's command lock — between commands, at an instruction
// boundary — and neither executes interpreted code nor touches the logical
// clock, so scraping cannot perturb the replay.
func obsMux(srv *dbgproto.Server, reg *obs.Registry, d *debugger.Debugger) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		srv.Locked(func() { d.VM.ObserveInto(reg) })
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		obs.WritePrometheus(w, reg.Snapshot())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		h := healthReport{Alive: true, Journal: d.Journal() != nil}
		srv.Locked(func() {
			h.Events = d.VM.Events()
			h.Halted = d.VM.Halted()
			h.Tainted = d.Tainted()
			if nyp, pending, err := d.VM.Engine().PendingSwitch(); err == nil {
				h.PendingSwitch = pending
				h.NextSwitchNYP = nyp
			}
		})
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(h)
	})
	return mux
}

// saveCheckpoint flushes the session state to a -restore-able file; it must
// run under the server's command lock so the VM is at an instruction
// boundary.
func saveCheckpoint(m *vm.VM, path string) {
	blob, err := m.AppendCheckpoint(nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dvserve: exit checkpoint: %v\n", err)
		return
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "dvserve: exit checkpoint: %v\n", err)
		return
	}
	fmt.Fprintf(os.Stderr, "dvserve: checkpoint at event %d -> %s (%d bytes); resume with dvserve -restore %s\n",
		m.Events(), path, len(blob), path)
}
