package main

import "time"

// The shared host this benchmark was tuned on changes effective speed for
// everything in the process, both within a second (the median off-mode
// run took twice the fastest) and for whole runs (the fastest off-mode
// runs of one 30-second run were 25% slower than another's). No statistic
// over one run's samples removes a whole-run slowdown. So every timed
// operation sits between two runs of a reference loop — fixed work that
// calls no DejaVu code — and its time is scaled by refNominal over the
// mean of those two loops' times: what the operation would have taken had
// the host run the loop in refNominal. A change to DejaVu does not change
// the loop, so it moves scaled times as it moves wall times.

// refNominal is the reference loop's median time on the two-vCPU guest the
// bounds were set on, so scaled times read as that machine's typical wall
// times; on another machine they differ from wall times by a constant
// factor.
const refNominal = 600 * time.Microsecond

const (
	refWords = 1 << 13 // 64 KiB of random-access state
	refIters = 40_000
	refCopy  = 256 << 10 // bytes copied per loop, as checkpoints copy heaps
)

// speedRef is one goroutine's reference loop state.
type speedRef struct {
	mem      []uint64
	src, dst []byte
	sink     uint64
	last     time.Duration // the last loop's time
}

func newSpeedRef() *speedRef {
	return &speedRef{mem: make([]uint64, refWords), src: make([]byte, refCopy), dst: make([]byte, refCopy)}
}

// loop runs the reference loop once and returns its wall time. The loop
// mixes what DejaVu's hot paths do: data-dependent branches and loads from
// a small table, as an interpreter's dispatch does, and a block copy, as
// checkpoints and restores do.
func (r *speedRef) loop() time.Duration {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < refIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & (refWords - 1)
		switch x >> 62 {
		case 0:
			r.mem[j] += x
		case 1:
			r.mem[j] ^= x >> 3
		case 2:
			x += r.mem[j]
		default:
			r.mem[j] = r.mem[(j+1)&(refWords-1)]
		}
	}
	copy(r.dst, r.src)
	r.sink += x + uint64(r.dst[x&(refCopy-1)])
	r.last = time.Since(t0)
	return r.last
}

// prev returns the time of the loop run last, running one if none has.
// Timed operations share loops: the loop after one is the loop before the
// next.
func (r *speedRef) prev() time.Duration {
	if r.last == 0 {
		return r.loop()
	}
	return r.last
}

// scale converts d, measured between reference loops that took before and
// after, to reference speed.
func scale(d, before, after time.Duration) time.Duration {
	return time.Duration(float64(d) * float64(2*refNominal) / float64(before+after))
}
