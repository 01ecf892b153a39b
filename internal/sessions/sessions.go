// Package sessions turns dvserve from one-process/one-session into a
// session-manager platform: a registry of concurrent record/replay/travel
// sessions, each with its own journal storage under a data root, its own
// command lock, and a share of a bounded worker budget.
//
// The paper's perturbation-free property is preserved per session: every
// command, peek, and travel on a session executes under that session's
// lock, against that session's own journal-backed VM — one tenant's
// debugging never advances, rewinds, or reads another tenant's replay.
// Cross-session interference is bounded by the worker budget: at most
// Workers commands execute at once process-wide, and a session that cannot
// get a worker slot within AdmitTimeout is refused with a structured
// reason instead of queuing unboundedly.
//
// Lifecycle: Create records (or adopts) a segmented journal and opens a
// debugging session over it; Attach binds a dbgproto or ptrace connection
// to the session; Travel moves it through time (from the nearest in-memory
// or durable checkpoint); Kill resolves through the session lock, so an
// in-flight command completes and everything after it sees a clean
// "killed" refusal. Drain stops admissions and checkpoints every live
// session for restart.
//
// Flight sessions (CreateRequest.Flight) record through the always-on
// flight recorder instead of a full journal: the run keeps only a bounded
// in-memory window, a faulting run (trap, stall, budget, divergence) is NOT
// a create failure — the window is flushed as the session's journal with
// the fault class as its reason, and the debugger opens over exactly the
// events leading into the fault. The frozen ring stays resident, so
// POST /v1/sessions/{id}/flush can re-flush the same window into numbered
// flush-NNN directories for export.
//
// On-disk layout under the data root:
//
//	<data-root>/sessions/<id>/meta.json   identity, program, seed, digest
//	<data-root>/sessions/<id>/journal/    segmented trace journal (PR 4)
//	<data-root>/sessions/<id>/flush-NNN/  on-demand flight re-flushes
//	<data-root>/sessions/<id>/killed      condemned marker (kill w/o purge)
//	<data-root>/sessions/<id>/<exit-save> drain checkpoint, when enabled
package sessions

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dejavu/internal/bytecode"
	"dejavu/internal/cli"
	"dejavu/internal/core"
	"dejavu/internal/dbgproto"
	"dejavu/internal/debugger"
	"dejavu/internal/flightrec"
	"dejavu/internal/heap"
	"dejavu/internal/obs"
	"dejavu/internal/ptrace"
	"dejavu/internal/replaycheck"
	"dejavu/internal/trace"
	"dejavu/internal/vm"
)

// Refusal reasons. Admission control never hangs and never panics: every
// refusal carries one of these machine-readable causes.
const (
	ReasonCapacity     = "capacity"      // pool session cap reached
	ReasonTenantCap    = "tenant-cap"    // per-tenant session cap reached
	ReasonBusy         = "busy"          // worker budget exhausted past AdmitTimeout
	ReasonDraining     = "draining"      // server is shutting down
	ReasonKilled       = "killed"        // session was killed
	ReasonNotFound     = "not-found"     // no such session
	ReasonQuota        = "quota"         // per-session journal byte quota exceeded
	ReasonNoFlight     = "no-flight"     // flush requested on a session without a flight window
	ReasonDegraded     = "degraded"      // session quarantined after a storage fault; repair retrying
	ReasonDiskLow      = "disk-low"      // data root below the low-watermark: no new recordings
	ReasonDiskCritical = "disk-critical" // data root below the critical watermark: no ingest
	ReasonRateLimited  = "rate-limited"  // tenant token bucket empty
	ReasonBreaker      = "breaker-open"  // exec circuit breaker open after consecutive stalls
)

// Refusal is a structured admission-control error: Reason is machine
// readable (one of the Reason* constants), Msg is for humans. RetryAfter,
// when set, is the caller's retry guidance — the HTTP layer surfaces it as
// a Retry-After header and retry_after_ms field on 429/503 responses.
type Refusal struct {
	Reason     string
	Msg        string
	RetryAfter time.Duration
}

func (e *Refusal) Error() string { return e.Msg }

// State is a session's lifecycle position.
type State int32

const (
	// StateCreating: registered (it holds a capacity slot) but its journal
	// is still being recorded; attaches are refused with ReasonBusy.
	StateCreating State = iota
	// StateCold: registered from a previous run's data root; the first
	// attach re-opens the journal session (paying the attach latency).
	StateCold
	// StateActive: journal session open, commands executable.
	StateActive
	// StateKilled: torn down; every operation refuses with ReasonKilled.
	StateKilled
	// StateDegraded: quarantined after a storage fault. The in-memory VM
	// (when present) stays attachable read-only; anything needing the
	// backing store refuses with ReasonDegraded while a supervised retry
	// loop attempts repair. Recovery returns the session to StateActive.
	StateDegraded
)

func (s State) String() string {
	switch s {
	case StateCreating:
		return "creating"
	case StateCold:
		return "cold"
	case StateActive:
		return "active"
	case StateKilled:
		return "killed"
	case StateDegraded:
		return "degraded"
	default:
		return "invalid"
	}
}

// Config sizes the pool.
type Config struct {
	DataRoot        string        // required: session storage root
	MaxSessions     int           // pool-wide session cap (0 = 128)
	MaxPerTenant    int           // per-tenant session cap (0 = 16, <0 = unlimited)
	Workers         int           // concurrent command budget (0 = 8)
	AdmitTimeout    time.Duration // max wait for a worker slot before a busy refusal (0 = 5s)
	CheckpointEvery uint64        // in-memory checkpoint cadence for session debuggers (0 = 25000)
	Obs             *obs.Registry // per-pool metrics (nil = none)

	// MaxSessionBytes caps each fresh recording's journal at rotation time
	// (0 = unlimited). A recording that crosses it is refused with
	// ReasonQuota — the control plane maps that to 413 — and the partial
	// journal is rolled back with the failed create.
	MaxSessionBytes int64

	// WrapFS, when set, wraps every session's journal filesystem — the
	// -chaos test hook. It sees fresh recordings, adopted journals, flight
	// flushes, and cold re-opens, so an injected fault can hit any
	// lifecycle phase. nil means identity.
	WrapFS func(sessionID string, fs trace.FS) trace.FS

	// Disk watermarks over the data root's free space. Below DiskLowBytes
	// new recordings are refused (ReasonDiskLow); below DiskCriticalBytes
	// ingest is refused too (ReasonDiskCritical). 0 disables a watermark.
	DiskLowBytes      int64
	DiskCriticalBytes int64
	// DiskFree overrides the free-space probe (tests); nil uses statfs on
	// DataRoot. A probe error fails open — shedding on a broken probe
	// would turn an observability bug into an outage.
	DiskFree func() (uint64, error)

	// TenantRatePerSec / TenantBurst shape the per-tenant token bucket on
	// session create and ingest. Rate 0 disables; burst 0 defaults to
	// max(1, ceil(rate)).
	TenantRatePerSec float64
	TenantBurst      int

	// BreakerThreshold trips a session's exec circuit breaker after this
	// many consecutive stalls (0 = 3, <0 disables); BreakerCooldown is the
	// open interval before a half-open trial (0 = 5s).
	BreakerThreshold int
	BreakerCooldown  time.Duration

	// RetryBase / RetryMax bound the degraded-session repair supervisor's
	// exponential backoff (0 = 200ms / 5s); RetrySeed seeds its jitter so
	// tests are deterministic.
	RetryBase time.Duration
	RetryMax  time.Duration
	RetrySeed int64
}

func (c Config) fill() Config {
	if c.MaxSessions == 0 {
		c.MaxSessions = 128
	}
	if c.MaxPerTenant == 0 {
		c.MaxPerTenant = 16
	}
	if c.Workers == 0 {
		c.Workers = 8
	}
	if c.AdmitTimeout == 0 {
		c.AdmitTimeout = 5 * time.Second
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 25_000
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown == 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	if c.RetryBase == 0 {
		c.RetryBase = 200 * time.Millisecond
	}
	if c.RetryMax == 0 {
		c.RetryMax = 5 * time.Second
	}
	return c
}

// poolMetrics is the per-pool series exported on /metrics.
type poolMetrics struct {
	created, killed, admitted                    *obs.Counter
	rejCapacity, rejTenant, rejBusy, rejDraining *obs.Counter
	rejQuota                                     *obs.Counter
	attaches, travels                            *obs.Counter
	flightFlushes, gcRemoved                     *obs.Counter
	busy                                         *obs.Gauge
	execLatency, createLatency, attachLatency    *obs.Histogram

	// Fault containment and load shedding.
	degradedTotal, recovered, retryAttempts        *obs.Counter
	breakerTrips                                   *obs.Counter
	shedDiskLow, shedDiskCritical, shedRateLimited *obs.Counter
	shedBreaker                                    *obs.Counter
}

// Manager is the session registry: it admits, stores, resolves, and tears
// down sessions, and owns the shared worker budget.
type Manager struct {
	cfg    Config
	rootFS *trace.DirFS
	budget chan struct{}
	met    poolMetrics

	// flushing counts in-flight flight flushes; the retention GC never
	// sweeps while one is writing, so a flush can't lose its directory
	// mid-publish.
	flushing atomic.Int64

	// tb rate-limits session create and ingest per tenant; nil when
	// disabled.
	tb *tokenBuckets

	mu       sync.Mutex
	sessions map[string]*Session
	byNum    map[uint64]*Session
	byTenant map[string]int
	nextNum  uint64
	draining bool
}

// wrapFS routes a session's journal filesystem through the configured
// chaos/test hook (identity when unset).
func (m *Manager) wrapFS(sessionID string, fs trace.FS) trace.FS {
	if m.cfg.WrapFS == nil {
		return fs
	}
	return m.cfg.WrapFS(sessionID, fs)
}

// NewManager opens (creating if needed) a session store under
// cfg.DataRoot. Session directories left by a previous run are registered
// cold: they count against caps and re-open on first attach.
func NewManager(cfg Config) (*Manager, error) {
	cfg = cfg.fill()
	if cfg.DataRoot == "" {
		return nil, fmt.Errorf("sessions: DataRoot is required")
	}
	rootFS, err := trace.NewDirFS(cfg.DataRoot)
	if err != nil {
		return nil, err
	}
	reg := cfg.Obs
	m := &Manager{
		cfg:      cfg,
		rootFS:   rootFS,
		budget:   make(chan struct{}, cfg.Workers),
		sessions: map[string]*Session{},
		byNum:    map[uint64]*Session{},
		byTenant: map[string]int{},
		met: poolMetrics{
			created:       reg.Counter("dv_sessions_created_total"),
			killed:        reg.Counter("dv_sessions_killed_total"),
			admitted:      reg.Counter("dv_sessions_admitted_total"),
			rejCapacity:   reg.Counter(obs.Label("dv_sessions_rejected_total", "reason", ReasonCapacity)),
			rejTenant:     reg.Counter(obs.Label("dv_sessions_rejected_total", "reason", ReasonTenantCap)),
			rejBusy:       reg.Counter(obs.Label("dv_sessions_rejected_total", "reason", ReasonBusy)),
			rejDraining:   reg.Counter(obs.Label("dv_sessions_rejected_total", "reason", ReasonDraining)),
			rejQuota:      reg.Counter(obs.Label("dv_sessions_rejected_total", "reason", ReasonQuota)),
			attaches:      reg.Counter("dv_sessions_attaches_total"),
			travels:       reg.Counter("dv_sessions_travels_total"),
			flightFlushes: reg.Counter("dv_sessions_flight_flushes_total"),
			gcRemoved:     reg.Counter("dv_sessions_gc_total"),
			busy:          reg.Gauge("dv_workers_busy"),
			execLatency:   reg.Histogram("dv_session_exec_seconds"),
			createLatency: reg.Histogram("dv_session_create_seconds"),
			attachLatency: reg.Histogram("dv_session_attach_seconds"),

			degradedTotal:    reg.Counter("dv_sessions_degraded_total"),
			recovered:        reg.Counter("dv_sessions_recovered_total"),
			retryAttempts:    reg.Counter("dv_retry_attempts_total"),
			breakerTrips:     reg.Counter("dv_breaker_trips_total"),
			shedDiskLow:      reg.Counter(obs.Label("dv_shed_total", "reason", ReasonDiskLow)),
			shedDiskCritical: reg.Counter(obs.Label("dv_shed_total", "reason", ReasonDiskCritical)),
			shedRateLimited:  reg.Counter(obs.Label("dv_shed_total", "reason", ReasonRateLimited)),
			shedBreaker:      reg.Counter(obs.Label("dv_shed_total", "reason", ReasonBreaker)),
		},
	}
	if cfg.TenantRatePerSec > 0 {
		m.tb = newTokenBuckets(cfg.TenantRatePerSec, cfg.TenantBurst)
	}
	reg.GaugeFunc("dv_workers_capacity", func() int64 { return int64(cfg.Workers) })
	reg.GaugeFunc("dv_sessions_active", func() int64 { return m.countState(StateActive) })
	reg.GaugeFunc("dv_sessions_cold", func() int64 { return m.countState(StateCold) })
	reg.GaugeFunc("dv_sessions_degraded", func() int64 { return m.countState(StateDegraded) })
	reg.GaugeFunc("dv_breaker_state", func() int64 { return m.countOpenBreakers() })
	if err := m.loadExisting(); err != nil {
		return nil, err
	}
	return m, nil
}

// countOpenBreakers counts sessions whose exec circuit breaker is not
// closed (open or half-open): the dv_breaker_state gauge.
func (m *Manager) countOpenBreakers() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var n int64
	for _, s := range m.sessions {
		if s.brk.tripped() {
			n++
		}
	}
	return n
}

func (m *Manager) countState(want State) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var n int64
	for _, s := range m.sessions {
		if s.State() == want {
			n++
		}
	}
	return n
}

// loadExisting registers session directories from a previous run as cold
// sessions. A directory without a parseable meta.json is skipped (it may
// be a half-created session from a crash) rather than failing startup.
func (m *Manager) loadExisting() error {
	dir := filepath.Join(m.cfg.DataRoot, "sessions")
	ents, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("sessions: scan %s: %w", dir, err)
	}
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		sdir := filepath.Join(dir, e.Name())
		if _, err := os.Stat(filepath.Join(sdir, "killed")); err == nil {
			// Condemned by a previous run's kill; left for the retention GC,
			// never resurrected as a cold session.
			continue
		}
		blob, err := os.ReadFile(filepath.Join(sdir, "meta.json"))
		if err != nil {
			continue
		}
		var mt meta
		if json.Unmarshal(blob, &mt) != nil || mt.ID != e.Name() || mt.Num == 0 {
			continue
		}
		jdir := mt.Source
		if jdir == "" {
			jdir = filepath.Join(sdir, "journal")
		}
		fs, err := trace.NewDirFS(jdir)
		if err != nil {
			continue
		}
		s := &Session{
			id: mt.ID, num: mt.Num, tenant: mt.Tenant, dir: sdir,
			fs: m.wrapFS(mt.ID, fs), mgr: m, meta: mt,
			stop: make(chan struct{}), brk: m.newBreaker(), metaWritten: true,
		}
		s.state.Store(int32(StateCold))
		m.sessions[s.id] = s
		m.byNum[s.num] = s
		m.byTenant[s.tenant]++
		if mt.Num > m.nextNum {
			m.nextNum = mt.Num
		}
	}
	return nil
}

// acquireWorker takes a slot of the shared worker budget, waiting up to
// AdmitTimeout before refusing with ReasonBusy. The returned release must
// be called exactly once.
func (m *Manager) acquireWorker() (func(), error) {
	select {
	case m.budget <- struct{}{}:
	default:
		t := time.NewTimer(m.cfg.AdmitTimeout)
		defer t.Stop()
		select {
		case m.budget <- struct{}{}:
		case <-t.C:
			m.met.rejBusy.Inc()
			return nil, &Refusal{Reason: ReasonBusy,
				Msg: fmt.Sprintf("worker budget exhausted (%d workers busy for %v); retry", m.cfg.Workers, m.cfg.AdmitTimeout)}
		}
	}
	m.met.busy.Inc()
	return func() { m.met.busy.Dec(); <-m.budget }, nil
}

// meta is the durable per-session identity record (meta.json).
type meta struct {
	ID           string `json:"id"`
	Num          uint64 `json:"num"`
	Tenant       string `json:"tenant"`
	Program      string `json:"program"`
	Seed         int64  `json:"seed"`
	RotateEvents int    `json:"rotate_events,omitempty"`
	Source       string `json:"source,omitempty"` // adopted journal dir (outside the data root)
	Events       uint64 `json:"events"`           // recorded trace length
	Switches     uint64 `json:"switches,omitempty"`
	Digest       string `json:"digest,omitempty"` // record digest, hex; replays must reproduce it
	Optimize     bool   `json:"optimize,omitempty"`
	// OptVerdict records the certifier's decision ("certified" or
	// "refused") when Optimize was requested. Cold re-attach re-derives
	// the same program — the optimizer is deterministic — so the verdict
	// is durable identity, not advice.
	OptVerdict string `json:"opt_verdict,omitempty"`
	Created    string `json:"created,omitempty"`
	// Flight sessions: the journal is a flushed flight-recorder window.
	// FlightReason is the fault class that triggered the flush ("exit" for
	// a clean run), Origin the first replayable instruction (0 = the window
	// still reached back to the start).
	Flight       bool   `json:"flight,omitempty"`
	FlightReason string `json:"flight_reason,omitempty"`
	Origin       uint64 `json:"origin,omitempty"`
}

// encodeMeta renders meta.json's durable bytes.
func encodeMeta(mt *meta) ([]byte, error) {
	return json.MarshalIndent(mt, "", "  ")
}

// Session is one tenant-owned record/replay/travel session. All VM access
// goes through Exec (command lock + worker budget); registry bookkeeping
// lives in the Manager.
type Session struct {
	id     string
	num    uint64
	tenant string
	dir    string
	fs     trace.FS // journal storage, routed through Config.WrapFS
	mgr    *Manager
	meta   meta

	state atomic.Int32 // State; written under mu, readable anywhere

	// brk is the exec-path circuit breaker (nil when disabled); stop is
	// closed by Kill to end the repair supervisor.
	brk  *breaker
	stop chan struct{}

	mu          sync.Mutex // command lock: serializes open/exec/kill/drain
	prog        *bytecode.Program
	d           *debugger.Debugger
	retrying    bool // a repair supervisor goroutine is live; guarded by mu
	metaWritten bool // meta.json is durable; guarded by mu

	// degradedErr is the storage fault that quarantined the session; its
	// own mutex so List/Info can read it without the command lock.
	degradedMu  sync.Mutex
	degradedErr error

	recoveries atomic.Uint64 // degraded→active transitions

	// ring is the resident flight recorder of a flight session, frozen at
	// the end of its recording; FlushFlight re-flushes it on demand. nil
	// for journal sessions and for flight sessions reloaded cold (the
	// window lived in the recording process's memory).
	ring     *flightrec.Ring
	flushSeq int // numbered flush-NNN directories minted; guarded by mu

	attaches atomic.Uint64
	travels  atomic.Uint64
}

// State reports the session's lifecycle position.
func (s *Session) State() State { return State(s.state.Load()) }

// ID returns the session's registry key ("s<num>").
func (s *Session) ID() string { return s.id }

// Num returns the numeric ID used by the binary peek protocol.
func (s *Session) Num() uint64 { return s.num }

// CreateRequest describes a session to mint.
type CreateRequest struct {
	// Tenant namespaces the session for per-tenant caps ("default" when
	// empty).
	Tenant string `json:"tenant,omitempty"`
	// Program is the program spec (workload:<name>, *.dvs, *.dva). It is
	// recorded (fresh journal) unless Source adopts an existing journal.
	Program string `json:"program"`
	// Seed drives the seeded preemptor for a fresh recording.
	Seed int64 `json:"seed,omitempty"`
	// RotateEvents sets the journal segment-rotation threshold; each
	// rotation seals a segment and writes a durable checkpoint travel can
	// re-seed from. <=0 keeps the journal single-segment.
	RotateEvents int `json:"rotate_events,omitempty"`
	// Source, when set, adopts an existing segmented-journal directory in
	// place instead of recording a fresh one.
	Source string `json:"source,omitempty"`
	// FromEvent positions the opened session at this event, seeded from
	// the nearest durable checkpoint at or before it.
	FromEvent uint64 `json:"from_event,omitempty"`
	// Optimize runs the certified bytecode optimizer over the program
	// before recording. A refused pipeline records the input unoptimized;
	// either way the verdict lands in meta.json and the session replays
	// the exact build it recorded (the optimizer is deterministic, so
	// cold re-attach re-derives it from the program spec).
	Optimize bool `json:"optimize,omitempty"`
	// Flight records through the always-on flight recorder instead of a
	// full journal: only a bounded in-memory window is retained, a
	// faulting run is captured rather than refused, and the flushed window
	// becomes the session's journal. Mutually exclusive with Source and
	// RotateEvents (the ring owns rotation).
	Flight bool `json:"flight,omitempty"`
	// FlightEvents / FlightBytes size the retained window (0 events with 0
	// bytes selects the recorder's default window).
	FlightEvents int   `json:"flight_events,omitempty"`
	FlightBytes  int64 `json:"flight_bytes,omitempty"`
}

// Info is a session's externally visible state (the control plane's JSON
// shape).
type Info struct {
	ID           string `json:"id"`
	Num          uint64 `json:"num"`
	Tenant       string `json:"tenant"`
	State        string `json:"state"`
	Program      string `json:"program"`
	Seed         int64  `json:"seed"`
	Events       uint64 `json:"events"`
	Switches     uint64 `json:"switches,omitempty"`
	Digest       string `json:"digest,omitempty"`
	Optimize     bool   `json:"optimize,omitempty"`
	OptVerdict   string `json:"opt_verdict,omitempty"`
	Flight       bool   `json:"flight,omitempty"`
	FlightReason string `json:"flight_reason,omitempty"`
	Origin       uint64 `json:"origin,omitempty"`
	Position     uint64 `json:"position,omitempty"`
	Tainted      bool   `json:"tainted,omitempty"`
	Attaches     uint64 `json:"attaches"`
	Travels      uint64 `json:"travels"`
	// Reseeds counts the travels that started from a durable checkpoint:
	// restored into the session's VM in place, or, for a target before
	// the journal suffix the VM replays, a re-seeded VM.
	Reseeds uint64 `json:"reseeds,omitempty"`
	Created string `json:"created,omitempty"`
	// Degraded carries the quarantining storage fault while the session is
	// degraded; Recoveries counts degraded→active repairs over its life.
	Degraded   string `json:"degraded,omitempty"`
	Recoveries uint64 `json:"recoveries,omitempty"`
}

// Create admits and builds a session: a fresh seeded recording rotated
// into a per-session journal (or an adopted journal), then a debugging
// session opened over it. Admission is checked first — a pool at capacity,
// a tenant at its cap, or a draining server refuses before any work runs.
func (m *Manager) Create(req CreateRequest) (*Info, error) {
	if req.Tenant == "" {
		req.Tenant = "default"
	}
	if req.Program == "" {
		return nil, fmt.Errorf("sessions: program is required")
	}
	// Load shedding before the registry lock: a full disk refuses new
	// recordings at the low watermark, and each tenant spends a token.
	if err := m.checkDisk(m.cfg.DiskLowBytes, ReasonDiskLow); err != nil {
		return nil, err
	}
	if err := m.takeToken(req.Tenant); err != nil {
		return nil, err
	}

	// Admission: decide and reserve under the registry lock.
	m.mu.Lock()
	switch {
	case m.draining:
		m.mu.Unlock()
		m.met.rejDraining.Inc()
		return nil, &Refusal{Reason: ReasonDraining, Msg: "server is draining; no new sessions"}
	case len(m.sessions) >= m.cfg.MaxSessions:
		m.mu.Unlock()
		m.met.rejCapacity.Inc()
		return nil, &Refusal{Reason: ReasonCapacity,
			Msg: fmt.Sprintf("session pool at capacity (%d); kill a session or retry", m.cfg.MaxSessions)}
	case m.cfg.MaxPerTenant > 0 && m.byTenant[req.Tenant] >= m.cfg.MaxPerTenant:
		m.mu.Unlock()
		m.met.rejTenant.Inc()
		return nil, &Refusal{Reason: ReasonTenantCap,
			Msg: fmt.Sprintf("tenant %q at its session cap (%d)", req.Tenant, m.cfg.MaxPerTenant)}
	}
	m.nextNum++
	num := m.nextNum
	id := "s" + strconv.FormatUint(num, 10)
	sdir := filepath.Join(m.cfg.DataRoot, "sessions", id)
	s := &Session{
		id: id, num: num, tenant: req.Tenant, dir: sdir, mgr: m,
		stop: make(chan struct{}), brk: m.newBreaker(),
	}
	s.state.Store(int32(StateCreating))
	m.sessions[id] = s
	m.byNum[num] = s
	m.byTenant[req.Tenant]++
	m.mu.Unlock()
	m.met.admitted.Inc()

	info, err := m.build(s, req)
	if err != nil {
		var sf *storageFault
		if errors.As(err, &sf) {
			// The backing store failed mid-build, not the request: keep the
			// registration and quarantine instead of rolling back, so the
			// supervisor can repair it in place once the store heals.
			s.mu.Lock()
			s.degradeLocked(sf.err)
			s.mu.Unlock()
			m.met.created.Inc()
			return nil, s.degradedRefusal()
		}
		// Roll the reservation back; the directory is removed so a failed
		// create doesn't resurrect as a cold session on restart.
		s.mu.Lock()
		s.state.Store(int32(StateKilled))
		s.d = nil
		s.mu.Unlock()
		close(s.stop)
		m.mu.Lock()
		delete(m.sessions, id)
		delete(m.byNum, num)
		m.byTenant[req.Tenant]--
		m.mu.Unlock()
		os.RemoveAll(sdir)
		return nil, err
	}
	m.met.created.Inc()
	return info, nil
}

// build does the heavy half of Create under a worker slot: record or
// adopt the journal, open the debugging session, persist meta.json.
func (m *Manager) build(s *Session, req CreateRequest) (*Info, error) {
	release, err := m.acquireWorker()
	if err != nil {
		return nil, err
	}
	defer release()
	start := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()

	s.meta = meta{
		ID: s.id, Num: s.num, Tenant: s.tenant,
		Program: req.Program, Seed: req.Seed, RotateEvents: req.RotateEvents,
		Source: req.Source, Optimize: req.Optimize, Flight: req.Flight,
		Created: time.Now().UTC().Format(time.RFC3339),
	}
	if req.Flight && (req.Source != "" || req.RotateEvents != 0) {
		return nil, fmt.Errorf("sessions: %s: flight is mutually exclusive with source and rotate_events", s.id)
	}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return nil, asStorageFault(fmt.Errorf("sessions: %s: %w", s.id, err))
	}
	// Resolve the program before recording so the journal records the
	// build that will replay it — the certified optimized program, or the
	// pristine input when the pipeline was refused. Program resolution
	// failures never quarantine: a bad spec is the caller's error, not the
	// store's.
	if s.prog, s.meta.OptVerdict, err = s.resolveProgram(); err != nil {
		return nil, fmt.Errorf("sessions: %s: %w", s.id, err)
	}
	switch {
	case req.Source != "":
		// Adoption failures (a missing or garbage source directory) are
		// user errors and roll back; they never enter quarantine.
		fs, err := trace.NewDirFS(req.Source)
		if err != nil {
			return nil, fmt.Errorf("sessions: %s: adopt %s: %w", s.id, req.Source, err)
		}
		s.fs = m.wrapFS(s.id, fs)
	case req.Flight:
		if err := s.recordFlightLocked(req); err != nil {
			return nil, err
		}
	default:
		fs, err := m.rootFS.Sub(filepath.Join("sessions", s.id, "journal"))
		if err != nil {
			return nil, asStorageFault(fmt.Errorf("sessions: %s: %w", s.id, err))
		}
		s.fs = m.wrapFS(s.id, fs)
		rec, err := cli.RecordJournalProgramOptions(s.prog, s.fs, replaycheck.Options{
			Seed: req.Seed, RotateEvents: req.RotateEvents,
			MaxJournalBytes: m.cfg.MaxSessionBytes,
		})
		if err != nil {
			if errors.Is(err, trace.ErrJournalQuota) {
				m.met.rejQuota.Inc()
				return nil, &Refusal{Reason: ReasonQuota, Msg: fmt.Sprintf(
					"session %s: recording exceeded the per-session journal quota (%d bytes); shrink the workload or raise -max-session-bytes",
					s.id, m.cfg.MaxSessionBytes)}
			}
			return nil, asStorageFault(fmt.Errorf("sessions: %s: %w", s.id, err))
		}
		s.meta.Events = rec.Events
		s.meta.Switches = rec.Switches
		s.meta.Digest = fmt.Sprintf("%016x", rec.Digest)
	}
	if s.d, err = s.openLocked(req.FromEvent); err != nil {
		if req.Source != "" {
			return nil, err
		}
		return nil, asStorageFault(err)
	}
	if req.Source != "" {
		s.meta.Events = uint64(s.d.Journal().Events())
	}
	if err := s.writeMetaLocked(); err != nil {
		return nil, err
	}
	s.state.Store(int32(StateActive))
	m.met.createLatency.ObserveSince(start)
	return s.infoLocked(), nil
}

// recordFlightLocked is the flight half of build: record through a bounded
// flight-recorder ring, then flush the retained window — fault or no fault
// — as the session's journal. A faulting run (trap, stall, budget,
// divergence) is the expected outcome, not a create failure: its class
// becomes the flush reason and the debugger opens over the window leading
// into it. Caller holds s.mu and has s.prog set.
func (s *Session) recordFlightLocked(req CreateRequest) error {
	ring, err := flightrec.NewRing(vm.ProgramHash(s.prog), flightrec.Options{
		WindowEvents: req.FlightEvents,
		WindowBytes:  req.FlightBytes,
		Obs:          s.mgr.cfg.Obs,
	})
	if err != nil {
		return fmt.Errorf("sessions: %s: flight ring: %w", s.id, err)
	}
	rec, err := cli.RecordFlightProgram(s.prog, ring, req.Seed)
	if err != nil {
		return fmt.Errorf("sessions: %s: flight record: %w", s.id, err)
	}
	reason := flightrec.Classify(rec.RunErr)
	if reason == "" {
		if rec.RunErr != nil {
			// Not a replay-relevant fault (setup-shaped failure): refuse the
			// create rather than minting a session around a broken run.
			return fmt.Errorf("sessions: %s: flight record: %w", s.id, rec.RunErr)
		}
		reason = "exit"
	}
	// Keep the ring and run stats before attempting the flush: if the
	// flush hits a storage fault the window stays resident, and the repair
	// supervisor re-flushes it from here once the store heals.
	s.ring = ring
	s.meta.FlightReason = reason
	s.meta.Events = rec.Events
	s.meta.Switches = rec.Switches
	s.meta.Digest = fmt.Sprintf("%016x", rec.Digest)
	jdir := filepath.Join(s.dir, "journal")
	info, err := s.flushRingLocked(jdir, reason)
	if err != nil {
		return asStorageFault(fmt.Errorf("sessions: %s: flight flush: %w", s.id, err))
	}
	fs, err := trace.NewDirFS(jdir)
	if err != nil {
		return asStorageFault(fmt.Errorf("sessions: %s: %w", s.id, err))
	}
	s.fs = s.mgr.wrapFS(s.id, fs)
	s.meta.Origin = info.Origin
	return nil
}

// flushRingLocked publishes the resident flight window into dir via a
// staged temp directory and atomic rename, routing the file writes through
// the session's (possibly chaos-wrapped) filesystem hook so injected
// storage faults hit flush I/O like any other journal I/O. Caller holds
// s.mu and has s.ring set.
func (s *Session) flushRingLocked(dir, reason string) (*flightrec.FlushInfo, error) {
	parent := filepath.Dir(dir)
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(parent, ".flight-")
	if err != nil {
		return nil, err
	}
	dfs, err := trace.NewDirFS(tmp)
	if err != nil {
		os.RemoveAll(tmp)
		return nil, err
	}
	info, err := s.ring.FlushTo(s.mgr.wrapFS(s.id, dfs), reason)
	if err != nil {
		os.RemoveAll(tmp)
		return nil, err
	}
	if err := os.Rename(tmp, dir); err != nil {
		os.RemoveAll(tmp)
		return nil, err
	}
	return info, nil
}

// resolveProgram resolves the session's program spec, running the
// certified optimizer pipeline when the session was created with
// Optimize. Returns the program to execute and the certifier verdict
// ("certified", "refused", or "" when optimization was not requested).
func (s *Session) resolveProgram() (*bytecode.Program, string, error) {
	prog, res, err := cli.LoadProgramOptimized(s.meta.Program, s.meta.Optimize, s.mgr.cfg.Obs)
	if err != nil {
		return nil, "", err
	}
	verdict := ""
	if res != nil {
		verdict = "refused"
		if res.Certified {
			verdict = "certified"
		}
	}
	return prog, verdict, nil
}

// openLocked builds the session's journal-backed debugger. Caller holds
// s.mu and has s.prog and s.fs set.
func (s *Session) openLocked(fromEvent uint64) (*debugger.Debugger, error) {
	d, err := debugger.OpenJournal(s.prog, s.fs, fromEvent, s.mgr.cfg.Obs)
	if err != nil {
		return nil, fmt.Errorf("sessions: %s: open journal: %w", s.id, err)
	}
	d.CheckpointEvery = s.mgr.cfg.CheckpointEvery
	return d, nil
}

// ensureOpenLocked resolves the session to an executable state. Caller
// holds s.mu. Cold sessions re-open here — this is the attach cost the
// durable-checkpoint seeding keeps O(segment).
func (s *Session) ensureOpenLocked() error {
	switch s.State() {
	case StateActive:
		return nil
	case StateKilled:
		return &Refusal{Reason: ReasonKilled, Msg: fmt.Sprintf("session %s is killed", s.id)}
	case StateCreating:
		return &Refusal{Reason: ReasonBusy, Msg: fmt.Sprintf("session %s is still being created; retry", s.id)}
	case StateDegraded:
		if s.d != nil {
			// The in-memory VM survived the storage fault: serve attaches,
			// peeks, and in-memory travel read-only while repair retries.
			return nil
		}
		return s.degradedRefusal()
	}
	start := time.Now()
	var err error
	if s.prog == nil {
		// Cold re-attach re-derives the recorded build: the optimizer is
		// deterministic, so an optimized session resolves to the identical
		// program the journal was recorded from.
		if s.prog, _, err = s.resolveProgram(); err != nil {
			return fmt.Errorf("sessions: %s: reopen program %q: %w", s.id, s.meta.Program, err)
		}
	}
	if s.d, err = s.openLocked(0); err != nil {
		if isStorageErr(err) {
			// The cold journal is on a failing store: quarantine and let
			// the supervisor retry instead of failing every attach anew.
			s.degradeLocked(err)
			return s.degradedRefusal()
		}
		return err
	}
	s.state.Store(int32(StateActive))
	s.mgr.met.attachLatency.ObserveSince(start)
	return nil
}

// Exec runs f against the session's debugger under the session's command
// lock and a shared worker slot. This is the single choke point for all
// session work: dbgproto commands, ptrace peeks, control-plane travel.
// Implements dbgproto.SessionHandle's execution contract.
func (s *Session) Exec(f func(d *debugger.Debugger) error) error {
	return s.exec(f, nil)
}

// exec is Exec with then, when set, run under the same lock after f
// succeeds and its travels are counted.
func (s *Session) exec(f func(d *debugger.Debugger) error, then func()) error {
	if ra, ok := s.brk.admit(); !ok {
		s.mgr.met.shedBreaker.Inc()
		return &Refusal{Reason: ReasonBreaker, RetryAfter: ra, Msg: fmt.Sprintf(
			"session %s: circuit breaker open after repeated replay stalls; retry in %v", s.id, ra.Round(time.Millisecond))}
	}
	release, err := s.mgr.acquireWorker()
	if err != nil {
		s.brk.cancel()
		return err
	}
	defer release()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.ensureOpenLocked(); err != nil {
		s.brk.cancel()
		return err
	}
	start := time.Now()
	defer s.mgr.met.execLatency.ObserveSince(start)
	d := s.d
	travels := d.Travels()
	execErr := f(d)
	if n := d.Travels() - travels; n > 0 {
		// Count travel however it was issued (control plane or dbgproto).
		// A storage fault during a durable re-seed quarantines the session;
		// in-memory travel keeps working while it is degraded.
		s.travels.Add(n)
		s.mgr.met.travels.Add(n)
		if execErr != nil && isStorageErr(execErr) {
			s.degradeLocked(execErr)
			execErr = s.degradedRefusal()
		}
	}
	if s.brk.record(errors.Is(execErr, core.ErrStalled)) {
		s.mgr.met.breakerTrips.Inc()
	}
	if execErr == nil && then != nil {
		then()
	}
	return execErr
}

// infoLocked snapshots the session's state. Caller holds s.mu.
func (s *Session) infoLocked() *Info {
	in := &Info{
		ID: s.id, Num: s.num, Tenant: s.tenant, State: s.State().String(),
		Program: s.meta.Program, Seed: s.meta.Seed,
		Events: s.meta.Events, Switches: s.meta.Switches, Digest: s.meta.Digest,
		Optimize: s.meta.Optimize, OptVerdict: s.meta.OptVerdict,
		Flight: s.meta.Flight, FlightReason: s.meta.FlightReason, Origin: s.meta.Origin,
		Attaches: s.attaches.Load(), Travels: s.travels.Load(),
		Created: s.meta.Created, Recoveries: s.recoveries.Load(),
	}
	if s.d != nil && s.State() == StateActive {
		in.Position = s.d.VM.Events()
		in.Tainted = s.d.Tainted()
		in.Reseeds = s.d.Reseeds()
	}
	if s.State() == StateDegraded {
		s.degradedMu.Lock()
		if s.degradedErr != nil {
			in.Degraded = s.degradedErr.Error()
		}
		s.degradedMu.Unlock()
	}
	return in
}

// lookup resolves a session ID or refuses with ReasonNotFound.
func (m *Manager) lookup(id string) (*Session, error) {
	m.mu.Lock()
	s := m.sessions[id]
	m.mu.Unlock()
	if s == nil {
		return nil, &Refusal{Reason: ReasonNotFound, Msg: fmt.Sprintf("no session %q", id)}
	}
	return s, nil
}

// Info reports one session's state (no worker slot: inspection must stay
// possible under load).
func (m *Manager) Info(id string) (*Info, error) {
	s, err := m.lookup(id)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.infoLocked(), nil
}

// List snapshots every registered session, ordered by ID. It takes no
// session locks — positions are omitted so listing never blocks behind a
// long command.
func (m *Manager) List() []*Info {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Info, 0, len(m.sessions))
	for _, s := range m.sessions {
		in := &Info{
			ID: s.id, Num: s.num, Tenant: s.tenant, State: s.State().String(),
			Program: s.meta.Program, Seed: s.meta.Seed,
			Events: s.meta.Events, Switches: s.meta.Switches, Digest: s.meta.Digest,
			Optimize: s.meta.Optimize, OptVerdict: s.meta.OptVerdict,
			Flight: s.meta.Flight, FlightReason: s.meta.FlightReason, Origin: s.meta.Origin,
			Attaches: s.attaches.Load(), Travels: s.travels.Load(),
			Created: s.meta.Created, Recoveries: s.recoveries.Load(),
		}
		if s.State() == StateDegraded {
			s.degradedMu.Lock()
			if s.degradedErr != nil {
				in.Degraded = s.degradedErr.Error()
			}
			s.degradedMu.Unlock()
		}
		out = append(out, in)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Num < out[j].Num })
	return out
}

// Travel moves a session to the given event count via its command lock,
// starting from the nearest in-memory or durable checkpoint at or before
// it (see debugger.Debugger.TravelTo).
func (m *Manager) Travel(id string, event uint64) (*Info, error) {
	s, err := m.lookup(id)
	if err != nil {
		return nil, err
	}
	var info *Info
	err = s.exec(func(d *debugger.Debugger) error { return d.TravelTo(event) },
		func() { info = s.infoLocked() })
	return info, err
}

// Kill tears a session down. The kill resolves through the session's
// command lock — an in-flight dbgproto command, ptrace peek, or flight
// flush completes first, and everything after it sees a structured
// ReasonKilled refusal, never a freed VM or a torn flush directory. With
// purge the session's directory is deleted immediately; without it the
// directory is condemned with a "killed" marker whose mtime starts the
// retention clock — GC removes it once it ages past -retain, and a restart
// never resurrects it as a cold session.
func (m *Manager) Kill(id string, purge bool) error {
	s, err := m.lookup(id)
	if err != nil {
		return err
	}
	s.mu.Lock()
	already := s.State() == StateKilled
	s.state.Store(int32(StateKilled))
	s.d = nil
	s.prog = nil
	s.ring = nil
	if !already && s.stop != nil {
		close(s.stop) // ends the repair supervisor, if one is running
	}
	s.mu.Unlock()
	if already {
		return &Refusal{Reason: ReasonKilled, Msg: fmt.Sprintf("session %s already killed", id)}
	}
	m.mu.Lock()
	delete(m.sessions, s.id)
	delete(m.byNum, s.num)
	m.byTenant[s.tenant]--
	m.mu.Unlock()
	m.met.killed.Inc()
	if purge {
		os.RemoveAll(s.dir)
	} else {
		stamp := time.Now().UTC().Format(time.RFC3339) + "\n"
		if werr := os.WriteFile(filepath.Join(s.dir, "killed"), []byte(stamp), 0o644); werr != nil {
			fmt.Fprintf(os.Stderr, "sessions: kill %s: condemn marker: %v\n", s.id, werr)
		}
	}
	return nil
}

// FlushFlight re-flushes a flight session's retained window into a fresh
// numbered directory (flush-NNN) under the session's storage and returns
// its name. It runs under the session's command lock, so a flush and a
// kill serialize: a kill issued mid-flush waits for the flush to finish,
// and a flush after a kill refuses with ReasonKilled. Journal sessions and
// cold-reloaded flight sessions (whose window lived in the recording
// process's memory) refuse with ReasonNoFlight.
func (m *Manager) FlushFlight(id, reason string) (*flightrec.FlushInfo, string, error) {
	if reason == "" {
		reason = "manual"
	}
	s, err := m.lookup(id)
	if err != nil {
		return nil, "", err
	}
	var info *flightrec.FlushInfo
	var name string
	err = s.Exec(func(*debugger.Debugger) error {
		if s.State() == StateDegraded {
			// Flush needs the backing store the session just lost: refuse
			// while quarantined (the resident window is not discarded).
			return s.degradedRefusal()
		}
		if s.ring == nil {
			return &Refusal{Reason: ReasonNoFlight, Msg: fmt.Sprintf(
				"session %s has no resident flight window (create with \"flight\": true in this server's lifetime)", s.id)}
		}
		m.flushing.Add(1)
		defer m.flushing.Add(-1)
		s.flushSeq++
		name = fmt.Sprintf("flush-%03d", s.flushSeq)
		fi, ferr := s.flushRingLocked(filepath.Join(s.dir, name), reason)
		if ferr != nil {
			if isStorageErr(ferr) {
				s.degradeLocked(ferr)
				return s.degradedRefusal()
			}
			return fmt.Errorf("sessions: %s: flight flush: %w", s.id, ferr)
		}
		info = fi
		m.met.flightFlushes.Inc()
		return nil
	})
	if err != nil {
		return nil, "", err
	}
	return info, name, nil
}

// GC sweeps the data root's session storage: unregistered directories —
// condemned by a kill (their "killed" marker starts the age clock) or left
// half-created by a crash — older than maxAge are removed, as are orphaned
// ".flight-*" flush temp directories inside live sessions. Registered
// sessions are never swept, and no sweep runs while any flight flush is
// writing (the flush's directory must not vanish mid-publish). Returns the
// number of directories removed.
func (m *Manager) GC(maxAge time.Duration) int {
	if maxAge <= 0 {
		return 0
	}
	if m.flushing.Load() > 0 {
		return 0 // never sweep under an in-flight flush
	}
	dir := filepath.Join(m.cfg.DataRoot, "sessions")
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	now := time.Now()
	removed := 0
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		sdir := filepath.Join(dir, e.Name())
		m.mu.Lock()
		_, live := m.sessions[e.Name()]
		m.mu.Unlock()
		if live {
			removed += sweepFlushTemps(sdir, now, maxAge, m.met.gcRemoved)
			continue
		}
		if dirAge(sdir, now) < maxAge {
			continue
		}
		if os.RemoveAll(sdir) == nil {
			removed++
			m.met.gcRemoved.Inc()
		}
	}
	return removed
}

// dirAge is the retention age of an unregistered session directory: time
// since its "killed" marker when present (the kill is what condemned it),
// else time since the directory's own mtime (half-created leftovers).
func dirAge(sdir string, now time.Time) time.Duration {
	if st, err := os.Stat(filepath.Join(sdir, "killed")); err == nil {
		return now.Sub(st.ModTime())
	}
	st, err := os.Stat(sdir)
	if err != nil {
		return 0
	}
	return now.Sub(st.ModTime())
}

// sweepFlushTemps removes aged ".flight-*" temp directories inside a live
// session — debris from a flush that crashed between staging and its
// atomic rename. The age bar keeps it clear of any current flush (which is
// additionally excluded by the flushing gate).
func sweepFlushTemps(sdir string, now time.Time, maxAge time.Duration, met *obs.Counter) int {
	ents, err := os.ReadDir(sdir)
	if err != nil {
		return 0
	}
	removed := 0
	for _, e := range ents {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), ".flight-") {
			continue
		}
		p := filepath.Join(sdir, e.Name())
		st, err := os.Stat(p)
		if err != nil || now.Sub(st.ModTime()) < maxAge {
			continue
		}
		if os.RemoveAll(p) == nil {
			removed++
			met.Inc()
		}
	}
	return removed
}

// VerifyReplay replays the session's journal from zero on a fresh VM and
// returns the replay digest — the bit-identity check that one session's
// replay is unperturbed by its neighbors. The journal is sealed, so the
// replay runs outside the session lock (only a worker slot), and an
// attached debugger can keep working during verification.
func (m *Manager) VerifyReplay(id string) (*Info, string, error) {
	s, err := m.lookup(id)
	if err != nil {
		return nil, "", err
	}
	release, err := m.acquireWorker()
	if err != nil {
		return nil, "", err
	}
	defer release()
	s.mu.Lock()
	if rerr := s.ensureOpenLocked(); rerr != nil {
		s.mu.Unlock()
		return nil, "", rerr
	}
	prog, fs, info := s.prog, s.fs, s.infoLocked()
	s.mu.Unlock()
	res, _, err := replaycheck.ReplayJournal(prog, fs, replaycheck.Options{})
	if err != nil {
		if isStorageErr(err) {
			s.mu.Lock()
			s.degradeLocked(err)
			s.mu.Unlock()
			return info, "", s.degradedRefusal()
		}
		return info, "", fmt.Errorf("sessions: %s: verify replay: %w", id, err)
	}
	if res.RunErr != nil {
		return info, "", fmt.Errorf("sessions: %s: verify replay: %w", id, res.RunErr)
	}
	return info, fmt.Sprintf("%016x", res.Digest.Sum()), nil
}

// Drain stops admissions and checkpoints every live session under its own
// lock (exitSave names the checkpoint file inside each session directory;
// empty skips checkpointing). Sessions mid-command finish that command
// first, so no checkpoint is ever half a command. Returns the IDs
// checkpointed.
func (m *Manager) Drain(exitSave string) []string {
	m.mu.Lock()
	m.draining = true
	list := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		list = append(list, s)
	}
	m.mu.Unlock()
	sort.Slice(list, func(i, j int) bool { return list[i].num < list[j].num })
	var saved []string
	for _, s := range list {
		s.mu.Lock()
		if exitSave != "" && s.State() == StateActive && s.d != nil {
			if err := s.saveCheckpointLocked(exitSave); err == nil {
				saved = append(saved, s.id)
			} else {
				fmt.Fprintf(os.Stderr, "sessions: drain %s: %v\n", s.id, err)
				if isStorageErr(err) {
					// Record the quarantine even at shutdown so the state
					// is honest in the final drain report and metrics.
					s.degradeLocked(err)
				}
			}
		}
		s.mu.Unlock()
	}
	return saved
}

// MaxSessions reports the pool-wide session cap (after defaulting).
func (m *Manager) MaxSessions() int { return m.cfg.MaxSessions }

// Draining reports whether admissions are stopped.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// saveCheckpointLocked writes a -restore-able checkpoint of the session VM
// into the session directory. Caller holds s.mu, so the VM is between
// commands at an instruction boundary.
func (s *Session) saveCheckpointLocked(name string) error {
	blob, err := s.d.VM.AppendCheckpoint(nil)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(s.dir, name), blob, 0o644)
}

// AttachSession implements dbgproto.SessionResolver: it resolves and opens
// the session so the first command doesn't pay the cold-attach cost, and
// counts the attachment.
func (m *Manager) AttachSession(id string) (dbgproto.SessionHandle, error) {
	s, err := m.lookup(id)
	if err != nil {
		return nil, err
	}
	// Open eagerly so attach errors surface at attach time.
	if err := s.Exec(func(*debugger.Debugger) error { return nil }); err != nil {
		return nil, err
	}
	s.attaches.Add(1)
	m.met.attaches.Inc()
	return &attachment{s: s}, nil
}

// attachment binds one dbgproto connection to a session.
type attachment struct{ s *Session }

func (a *attachment) Exec(f func(d *debugger.Debugger) error) error {
	return a.s.Exec(f)
}

func (a *attachment) Detach() {}

// WithSession implements ptrace.SessionSource: f runs with the session's
// live heap under the session's command lock, so peeks can never race a
// kill or a travel re-seed.
func (m *Manager) WithSession(num uint64, f func(h *heap.Heap, roots ptrace.RootSource) error) error {
	m.mu.Lock()
	s := m.byNum[num]
	m.mu.Unlock()
	if s == nil {
		return &Refusal{Reason: ReasonNotFound, Msg: fmt.Sprintf("no session #%d", num)}
	}
	return s.Exec(func(d *debugger.Debugger) error {
		return f(d.VM.Heap(), d.VM)
	})
}
