package main

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dejavu/internal/obs"
	"dejavu/internal/sessions"
	"dejavu/internal/trace"
)

// travelsPerCycle is how many seed-drawn travels each session serves
// between its create and its verify. A travel's cost follows how far it
// replays, so travel latencies spread over two orders of magnitude; with
// four per cycle their per-program medians moved 10% between runs from
// sampling alone.
const travelsPerCycle = 12

// numClients is the closed-loop session client count, one per core of
// the two-core machine the bounds were set on.
const numClients = 2

// pool is one sessions.Manager with what the benchmark observes about it.
type pool struct {
	mgr    *sessions.Manager
	reg    *obs.Registry // nil on the untraced pool
	fsyncs atomic.Int64  // journal fsyncs asked for

	mu       sync.Mutex
	journals map[string]*memFS // by session ID, until the session is killed
}

func newPool(root string, traced bool) (*pool, error) {
	pl := &pool{journals: map[string]*memFS{}}
	// Sessions keep their metadata under root; their journals are held in
	// memory (see memFS).
	cfg := sessions.Config{DataRoot: root, Workers: numClients, WrapFS: pl.journal}
	if traced {
		pl.reg = obs.NewRegistry()
		cfg.Obs = pl.reg
	}
	m, err := sessions.NewManager(cfg)
	if err != nil {
		return nil, err
	}
	pl.mgr = m
	return pl, nil
}

// journal is the Manager's WrapFS hook: it replaces a session's on-disk
// journal directory with the session's in-memory one.
func (pl *pool) journal(id string, _ trace.FS) trace.FS {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	j, ok := pl.journals[id]
	if !ok {
		j = newMemFS(&pl.fsyncs)
		pl.journals[id] = j
	}
	return j
}

// drop forgets a session's journal and returns it (nil if it had none).
func (pl *pool) drop(id string) *memFS {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	j := pl.journals[id]
	delete(pl.journals, id)
	return j
}

// cycleStats accumulates one set of session lifecycles.
type cycleStats struct {
	create, travel, verify latencies
	cycle                  latencies // completed cycles' summed operation times
	cycles                 int       // completed without a failure
	attempted, failed      int
	errs                   []string

	// Traced cycles only: what the journals held.
	recorded             uint64 // events recorded by successful creates
	journalBytes         int64
	checkpointBytes      int64
	checkpoints, journal int // checkpoint files; journals measured
}

func (c *cycleStats) merge(o *cycleStats) {
	c.create.merge(o.create)
	c.travel.merge(o.travel)
	c.verify.merge(o.verify)
	c.cycle.merge(o.cycle)
	c.cycles += o.cycles
	c.attempted += o.attempted
	c.failed += o.failed
	c.errs = append(c.errs, o.errs...)
	c.recorded += o.recorded
	c.journalBytes += o.journalBytes
	c.checkpointBytes += o.checkpointBytes
	c.checkpoints += o.checkpoints
	c.journal += o.journal
}

func (c *cycleStats) fail(err error) {
	c.failed++
	if len(c.errs) < 5 {
		c.errs = append(c.errs, err.Error())
	}
}

// lifecycleResult is the phase's outcome, split by pool in traced runs.
type lifecycleResult struct {
	untraced, traced cycleStats
	elapsed          time.Duration
	busySamples      []float64 // traced pool: dv_workers_busy / capacity
}

// lifecycle drives numClients closed-loop clients until deadline. Each
// client repeats create → travels → verify → kill(purge) over the
// session programs in a seed-shuffled order. In a traced run the clients
// alternate between the untraced pool and the traced one, cycle by cycle.
func (b *bench) lifecycle(deadline time.Time) lifecycleResult {
	var res lifecycleResult
	per := make([][2]cycleStats, numClients)
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	if b.traced != nil {
		sampler.Add(1)
		go func() {
			defer sampler.Done()
			busy := b.traced.reg.Gauge("dv_workers_busy")
			tick := time.NewTicker(2 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					res.busySamples = append(res.busySamples, float64(busy.Value())/numClients)
				}
			}
		}()
	}
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < numClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(b.seed*7919 + int64(c)))
			order := rng.Perm(len(b.sessions))
			tenant := fmt.Sprintf("client%d", c)
			ref := newSpeedRef()
			for k := 0; ; k++ {
				if time.Now().After(deadline) && k >= 2 {
					return
				}
				pl, tr, slot := b.untraced, (*tracer)(nil), 0
				if b.traced != nil && k%2 == 1 {
					pl, tr, slot = b.traced, b.tr, 1
				}
				b.cycle(pl, tr, ref, b.sessions[order[k%len(order)]], tenant, rng, &per[c][slot])
			}
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	close(stop)
	sampler.Wait()
	for c := range per {
		res.untraced.merge(&per[c][0])
		res.traced.merge(&per[c][1])
	}
	return res
}

// cycle runs one session lifecycle and accounts for every operation.
func (b *bench) cycle(pl *pool, tr *tracer, ref *speedRef, p *prog, tenant string, rng *rand.Rand, st *cycleStats) {
	req := tr.request()
	root := tr.reserve("perfbench.lifecycle", 0, req, time.Now())
	defer func() { tr.finish(root, time.Now()) }()
	var cycleTime time.Duration // the operations' scaled times
	op := func(name string, f func() error) (time.Duration, bool) {
		st.attempted++
		before := ref.prev()
		t0 := time.Now()
		err := f()
		t1 := time.Now()
		after := ref.loop()
		tr.add("sessions."+name, root, req, t0, t1)
		if err != nil {
			st.fail(fmt.Errorf("%s %s: %w", p.name, name, err))
			return 0, false
		}
		d := scale(t1.Sub(t0), before, after)
		cycleTime += d
		return d, true
	}
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

	var info *sessions.Info
	d, ok := op("Create", func() error {
		var err error
		info, err = pl.mgr.Create(sessions.CreateRequest{Tenant: tenant, Program: p.image,
			Seed: rng.Int63n(1 << 31), RotateEvents: p.rotate})
		if err == nil && info.Events < 2 {
			err = fmt.Errorf("session recorded %d events", info.Events)
		}
		return err
	})
	if !ok {
		return
	}
	st.create.add(p.name, ms(d))
	failed := false
	for i := 0; i < travelsPerCycle; i++ {
		target := 1 + uint64(rng.Int63n(int64(info.Events-1)))
		d, ok := op("Travel", func() error {
			at, err := pl.mgr.Travel(info.ID, target)
			if err == nil && at.Position != target {
				err = fmt.Errorf("travel to event %d landed at %d", target, at.Position)
			}
			return err
		})
		if ok {
			st.travel.add(p.name, ms(d))
		}
		failed = failed || !ok
	}
	d, ok = op("VerifyReplay", func() error {
		_, digest, err := pl.mgr.VerifyReplay(info.ID)
		if err == nil && digest != info.Digest {
			err = fmt.Errorf("replay digest %s, recorded %s", digest, info.Digest)
		}
		return err
	})
	if ok {
		st.verify.add(p.name, ms(d))
	}
	failed = failed || !ok
	_, ok = op("Kill", func() error { return pl.mgr.Kill(info.ID, true) })
	if j := pl.drop(info.ID); tr != nil && j != nil {
		st.measureJournal(j, info.Events)
	}
	if !ok || failed {
		return
	}
	st.cycles++
	st.cycle.add(p.name, ms(cycleTime))
}

// measureJournal adds a session journal's footprint.
func (c *cycleStats) measureJournal(j *memFS, events uint64) {
	for name, n := range j.sizes() {
		c.journalBytes += int64(n)
		if strings.HasPrefix(name, "ckpt-") {
			c.checkpoints++
			c.checkpointBytes += int64(n)
		}
	}
	c.journal++
	c.recorded += events
}

// refusals sums the pool's admission refusals across reasons.
func (pl *pool) refusals() int64 {
	n := int64(0)
	for _, s := range pl.reg.Snapshot() {
		if strings.HasPrefix(s.Name, "dv_sessions_rejected_total") {
			n += s.Value
		}
	}
	return n
}
