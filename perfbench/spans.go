package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a module's public function, recorded from
// the benchmark's side of the call.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a request's root span
	Req    int    `json:"req"`    // one id per program-mode run or session lifecycle
	Name   string `json:"name"`   // "<module>.<function>"
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer holds spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	reqs  int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// request starts a new request id.
func (t *tracer) request() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reqs++
	return t.reqs
}

// add records a finished span and returns its id.
func (t *tracer) add(name string, parent, req int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

// reserve allocates a span id for a parent whose end is not known yet;
// finish fills it in. Children may reference the id in between.
func (t *tracer) reserve(name string, parent, req int, start time.Time) int {
	return t.add(name, parent, req, start, start)
}

func (t *tracer) finish(id int, end time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = end.Sub(t.t0).Nanoseconds()
}

// selfTimes returns, per module (the span name's prefix before the first
// dot), the summed self time of its spans: each span's duration minus the
// part of it covered by its children. It also returns the total duration
// of root spans.
func (t *tracer) selfTimes() (map[string]time.Duration, time.Duration) {
	self := map[string]time.Duration{}
	if t == nil {
		return self, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	var roots time.Duration
	for _, s := range t.spans {
		if s.Parent == 0 {
			roots += time.Duration(s.End - s.Start)
		} else {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range t.spans {
		covered := coveredNS(s, children[s.ID])
		mod, _, _ := strings.Cut(s.Name, ".")
		self[mod] += time.Duration(s.End - s.Start - covered)
	}
	return self, roots
}

// coveredNS is the length of the union of the children's intervals,
// clipped to the parent's.
func coveredNS(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var covered, curStart, curEnd int64
	open := false
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if open && s <= curEnd {
			curEnd = max(curEnd, e)
			continue
		}
		if open {
			covered += curEnd - curStart
		}
		curStart, curEnd, open = s, e, true
	}
	if open {
		covered += curEnd - curStart
	}
	return covered
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
