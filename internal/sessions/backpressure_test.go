// Backpressure under the microscope: disk watermarks shed creates before
// ingest, the per-tenant token bucket refuses with refill guidance, and
// the stall breaker sheds the exec path and heals through its half-open
// trial. Deterministic throughout — fake clocks and injected free-space
// probes, no sleeps against real rate limits.
package sessions

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"dejavu/internal/core"
	"dejavu/internal/debugger"
)

func TestDiskWatermarksShedCreateThenIngest(t *testing.T) {
	var free atomic.Uint64
	free.Store(1 << 30)
	m := newTestManager(t, Config{
		DiskLowBytes:      1000,
		DiskCriticalBytes: 100,
		DiskFree:          func() (uint64, error) { return free.Load(), nil },
	})

	// Plenty of space: everything admits.
	if _, err := m.Create(CreateRequest{Program: "workload:fig1ab", Seed: 7}); err != nil {
		t.Fatal(err)
	}
	if err := m.AdmitIngest(""); err != nil {
		t.Fatal(err)
	}

	// Below the low watermark: new recordings shed, ingest still admits
	// (an in-flight crash flush is worth more than a fresh recording).
	free.Store(500)
	_, err := m.Create(CreateRequest{Program: "workload:fig1ab", Seed: 7})
	rf := wantRefusal(t, err, ReasonDiskLow)
	if rf.RetryAfter <= 0 {
		t.Fatalf("disk-low refusal carries no retry guidance: %+v", rf)
	}
	if err := m.AdmitIngest(""); err != nil {
		t.Fatalf("ingest shed above the critical watermark: %v", err)
	}

	// Below the critical watermark: ingest sheds too.
	free.Store(50)
	wantRefusal(t, m.AdmitIngest(""), ReasonDiskCritical)

	// The probe failing open: shedding on a broken probe would turn an
	// observability bug into an outage.
	failing := newTestManager(t, Config{
		DiskLowBytes: 1000,
		DiskFree:     func() (uint64, error) { return 0, errors.New("statfs broken") },
	})
	if _, err := failing.Create(CreateRequest{Program: "workload:fig1ab", Seed: 7}); err != nil {
		t.Fatalf("broken probe shed load: %v", err)
	}
}

func TestTokenBucketRefillsDeterministically(t *testing.T) {
	clock := time.Unix(1000, 0)
	tb := newTokenBuckets(2, 3) // 2 tokens/s, burst 3
	tb.now = func() time.Time { return clock }

	for i := 0; i < 3; i++ {
		if wait, ok := tb.take("a"); !ok {
			t.Fatalf("burst take %d refused (wait %v)", i, wait)
		}
	}
	wait, ok := tb.take("a")
	if ok {
		t.Fatal("take beyond burst admitted")
	}
	if wait <= 0 || wait > time.Second {
		t.Fatalf("refill guidance = %v, want (0, 1s] at 2 tokens/s", wait)
	}
	// Tenants are isolated: b has its own full bucket.
	if _, ok := tb.take("b"); !ok {
		t.Fatal("fresh tenant refused while another is over rate")
	}
	// Half a second refills one token at 2/s.
	clock = clock.Add(500 * time.Millisecond)
	if _, ok := tb.take("a"); !ok {
		t.Fatal("take after refill refused")
	}
	if _, ok := tb.take("a"); ok {
		t.Fatal("second take after a one-token refill admitted")
	}
}

func TestTenantRateLimitGatesCreateAndIngest(t *testing.T) {
	m := newTestManager(t, Config{TenantRatePerSec: 0.001, TenantBurst: 1})

	// The one burst token goes to the first create — spent before program
	// resolution, so even a failing create consumes it.
	if _, err := m.Create(CreateRequest{Program: "workload:nope"}); err == nil {
		t.Fatal("unknown workload created")
	}
	_, err := m.Create(CreateRequest{Program: "workload:nope"})
	rf := wantRefusal(t, err, ReasonRateLimited)
	if rf.RetryAfter <= 0 {
		t.Fatalf("rate refusal carries no retry guidance: %+v", rf)
	}
	// Ingest shares the tenant's bucket; another tenant is unaffected.
	wantRefusal(t, m.AdmitIngest("default"), ReasonRateLimited)
	if err := m.AdmitIngest("other"); err != nil {
		t.Fatalf("sibling tenant rate-limited: %v", err)
	}
}

func TestBreakerStateMachine(t *testing.T) {
	b := &breaker{threshold: 3, cooldown: 25 * time.Millisecond}
	if _, ok := b.admit(); !ok {
		t.Fatal("closed breaker refused")
	}
	// Two stalls: under threshold, still closed.
	for i := 0; i < 2; i++ {
		if b.record(true) {
			t.Fatalf("stall %d tripped below threshold", i)
		}
	}
	// A success resets the consecutive count.
	b.record(false)
	for i := 0; i < 2; i++ {
		b.record(true)
	}
	if b.tripped() {
		t.Fatal("tripped after reset + 2 stalls")
	}
	if !b.record(true) {
		t.Fatal("third consecutive stall did not trip")
	}
	if ra, ok := b.admit(); ok || ra <= 0 {
		t.Fatalf("open breaker admit = (%v, %v), want refusal with guidance", ra, ok)
	}

	// After the cooldown exactly one half-open trial runs at a time.
	time.Sleep(30 * time.Millisecond)
	if _, ok := b.admit(); !ok {
		t.Fatal("half-open trial refused after cooldown")
	}
	if _, ok := b.admit(); ok {
		t.Fatal("second command admitted during the trial")
	}
	// A cancelled trial (refused upstream) frees the slot immediately.
	b.cancel()
	if _, ok := b.admit(); !ok {
		t.Fatal("trial slot leaked after cancel")
	}
	// A stalled trial re-opens at once; a clean one closes.
	if !b.record(true) {
		t.Fatal("stalled trial did not re-open")
	}
	time.Sleep(30 * time.Millisecond)
	if _, ok := b.admit(); !ok {
		t.Fatal("second trial refused")
	}
	b.record(false)
	if b.tripped() {
		t.Fatal("breaker open after a clean trial")
	}

	// Nil breaker (disabled): everything is a no-op that admits.
	var nb *breaker
	if _, ok := nb.admit(); !ok {
		t.Fatal("nil breaker refused")
	}
	nb.cancel()
	if nb.record(true) || nb.tripped() {
		t.Fatal("nil breaker tripped")
	}
}

func TestBreakerShedsExecPathAndRecovers(t *testing.T) {
	m := newTestManager(t, Config{BreakerThreshold: 2, BreakerCooldown: 25 * time.Millisecond})
	info, err := m.Create(CreateRequest{Program: "workload:fig1ab", Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.lookup(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	stall := func(*debugger.Debugger) error { return core.ErrStalled }
	for i := 0; i < 2; i++ {
		if err := s.Exec(stall); !errors.Is(err, core.ErrStalled) {
			t.Fatalf("stalling exec %d = %v", i, err)
		}
	}
	err = s.Exec(func(*debugger.Debugger) error {
		t.Fatal("command ran through an open breaker")
		return nil
	})
	rf := wantRefusal(t, err, ReasonBreaker)
	if rf.RetryAfter <= 0 {
		t.Fatalf("breaker refusal carries no retry guidance: %+v", rf)
	}
	if m.countOpenBreakers() != 1 {
		t.Fatalf("open breakers = %d, want 1", m.countOpenBreakers())
	}

	// Past the cooldown a clean trial closes the breaker and service is back.
	time.Sleep(30 * time.Millisecond)
	if err := s.Exec(func(*debugger.Debugger) error { return nil }); err != nil {
		t.Fatalf("half-open trial: %v", err)
	}
	if m.countOpenBreakers() != 0 {
		t.Fatalf("open breakers after clean trial = %d, want 0", m.countOpenBreakers())
	}
	if _, err := m.Travel(info.ID, 1); err != nil {
		t.Fatalf("travel after breaker closed: %v", err)
	}
}
