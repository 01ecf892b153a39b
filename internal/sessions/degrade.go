// Fault containment: a journal/checkpoint I/O error quarantines the one
// session that hit it instead of failing the process or poisoning its
// siblings.
//
// A session in StateDegraded keeps its in-memory VM (when it has one):
// attach, peek, and travel that the in-memory checkpoints can serve keep
// working read-only, while anything that needs the backing store —
// durable re-seeds, flight flushes, drain checkpoints — refuses with a
// structured Refusal{Reason: ReasonDegraded} carrying retry guidance. A
// per-session supervisor retries repair with capped exponential backoff
// plus jitter: re-opening the journal reuses the torn-tail salvage scan
// (OpenJournal's bounded scanner), so a recording cut short
// by ENOSPC comes back as a replayable partial journal once the store
// heals, and the session returns to StateActive.
package sessions

import (
	"errors"
	"fmt"
	"io"
	iofs "io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"dejavu/internal/faults"
	"dejavu/internal/trace"
)

// storageFault marks an error as a backing-store failure: the trigger for
// quarantine rather than rollback. Only journal/checkpoint I/O paths wrap
// with it — a bad program spec or a user error never degrades a session.
type storageFault struct{ err error }

func (e *storageFault) Error() string { return "storage fault: " + e.err.Error() }
func (e *storageFault) Unwrap() error { return e.err }

// asStorageFault wraps err as a storage fault when it looks like one
// (injected chaos, an errno, a path error, torn journal metadata), and
// returns it untouched otherwise.
func asStorageFault(err error) error {
	if err == nil {
		return nil
	}
	if isStorageErr(err) {
		return &storageFault{err: err}
	}
	return err
}

// isStorageErr classifies backing-store failures: injected chaos faults,
// OS-level I/O errors, and torn/corrupt journal metadata (repairable by
// salvage once the store heals, and in any case never worth crashing for).
func isStorageErr(err error) bool {
	var pe *iofs.PathError
	var errno syscall.Errno
	return errors.Is(err, faults.ErrInjected) ||
		errors.As(err, &pe) ||
		errors.As(err, &errno) ||
		errors.Is(err, trace.ErrManifest) ||
		errors.Is(err, trace.ErrCheckpoint) ||
		errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, io.ErrShortWrite)
}

// degradedRefusal builds the structured refusal a degraded session
// answers with; RetryAfter points clients at the supervisor's cadence.
func (s *Session) degradedRefusal() *Refusal {
	msg := fmt.Sprintf("session %s is degraded (storage fault); repair is being retried", s.id)
	s.degradedMu.Lock()
	if s.degradedErr != nil {
		msg = fmt.Sprintf("session %s is degraded: %v; repair is being retried", s.id, s.degradedErr)
	}
	s.degradedMu.Unlock()
	return &Refusal{Reason: ReasonDegraded, Msg: msg, RetryAfter: s.mgr.cfg.RetryBase}
}

// degradeLocked quarantines the session after a storage fault and starts
// (at most one) repair supervisor. Caller holds s.mu. Killed sessions stay
// killed. The manager itself never panics here: degradation is bookkeeping
// plus a goroutine, never an exit path.
func (s *Session) degradeLocked(cause error) {
	if s.State() == StateKilled {
		return
	}
	s.degradedMu.Lock()
	s.degradedErr = cause
	s.degradedMu.Unlock()
	if s.State() != StateDegraded {
		s.state.Store(int32(StateDegraded))
		s.mgr.met.degradedTotal.Inc()
		fmt.Fprintf(os.Stderr, "sessions: %s quarantined (degraded): %v\n", s.id, cause)
	}
	if !s.retrying {
		s.retrying = true
		go s.superviseRetry()
	}
}

// superviseRetry is the per-session repair loop: capped exponential
// backoff with ±20% jitter between attempts, each attempt re-opening the
// journal under the session lock. It exits when the session recovers, is
// killed, or the manager drains.
func (s *Session) superviseRetry() {
	cfg := s.mgr.cfg
	delay := cfg.RetryBase
	rnd := rand.New(rand.NewSource(cfg.RetrySeed ^ int64(s.num)))
	for {
		select {
		case <-s.stop:
			return
		case <-time.After(jitterDuration(delay, rnd)):
		}
		if s.mgr.Draining() {
			return
		}
		s.mu.Lock()
		if s.State() != StateDegraded {
			s.retrying = false
			s.mu.Unlock()
			return
		}
		s.mgr.met.retryAttempts.Inc()
		err := s.repairLocked()
		if err == nil {
			s.state.Store(int32(StateActive))
			s.degradedMu.Lock()
			s.degradedErr = nil
			s.degradedMu.Unlock()
			s.retrying = false
			s.recoveries.Add(1)
			s.mgr.met.recovered.Inc()
			s.mu.Unlock()
			fmt.Fprintf(os.Stderr, "sessions: %s recovered from degraded state\n", s.id)
			return
		}
		s.mu.Unlock()
		if delay *= 2; delay > cfg.RetryMax {
			delay = cfg.RetryMax
		}
	}
}

// jitterDuration spreads d by ±20% so a fleet of supervisors (or
// reconnecting clients) never thunders in lockstep.
func jitterDuration(d time.Duration, rnd *rand.Rand) time.Duration {
	if d <= 0 {
		return d
	}
	return time.Duration(float64(d) * (0.8 + 0.4*rnd.Float64()))
}

// repairLocked is one repair attempt. Caller holds s.mu and the session is
// degraded. Repair re-derives the program if needed, re-flushes a resident
// flight window whose first flush tore, re-opens the journal (salvaging a
// torn tail via the bounded recover scanner), and completes any meta.json
// write the fault interrupted. Success leaves s.js serving again.
func (s *Session) repairLocked() error {
	var err error
	if s.prog == nil {
		if s.prog, s.meta.OptVerdict, err = s.resolveProgram(); err != nil {
			return err
		}
	}
	if s.meta.Flight && s.ring != nil {
		// The create-time flush may have died half-written (its temp dir
		// never published). The window is still resident: re-flush it.
		if s.fs == nil || !journalOpens(s.fs) {
			jdir := filepath.Join(s.dir, "journal")
			info, ferr := s.flushRingLocked(jdir, s.meta.FlightReason)
			if ferr != nil {
				return ferr
			}
			fs, derr := trace.NewDirFS(jdir)
			if derr != nil {
				return derr
			}
			s.fs = s.mgr.wrapFS(s.id, fs)
			s.meta.Origin = info.Origin
		}
	}
	if s.fs == nil {
		return fmt.Errorf("sessions: %s: no journal storage to repair", s.id)
	}
	js, err := s.openLocked(0)
	if err != nil {
		return err
	}
	s.js = js
	if s.meta.Events == 0 {
		// The recording died before its stats were known; report what the
		// salvaged journal actually holds.
		s.meta.Events = uint64(js.Journal().Events())
	}
	if !s.metaWritten {
		if err := s.writeMetaLocked(); err != nil {
			return err
		}
	}
	return nil
}

// journalOpens reports whether fs currently holds an openable journal.
func journalOpens(fs trace.FS) bool {
	_, err := trace.OpenJournal(fs)
	return err == nil
}

// writeMetaLocked persists meta.json. Caller holds s.mu.
func (s *Session) writeMetaLocked() error {
	blob, err := encodeMeta(&s.meta)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(s.dir, "meta.json"), blob, 0o644); err != nil {
		return &storageFault{err: fmt.Errorf("sessions: %s: meta: %w", s.id, err)}
	}
	s.metaWritten = true
	return nil
}
