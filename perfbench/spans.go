package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one sampled call across a layer boundary.
type span struct {
	ID     uint64
	Parent uint64 // the span that caused this one; 0 for a root
	Name   string
	Start  time.Time
	End    time.Time
}

// spanLog keeps sampled spans in memory until the run ends. Boundary
// wrappers count and time every call themselves; the log holds the full
// spans of one call in every `every`, up to limit spans. It is safe for
// concurrent use.
type spanLog struct {
	every uint64
	limit int
	seen  atomic.Uint64
	next  atomic.Uint64
	full  atomic.Bool

	mu    sync.Mutex
	spans []span
}

func newSpanLog(every uint64, limit int) *spanLog {
	return &spanLog{every: every, limit: limit}
}

// sample reports whether the next call at a sampled boundary keeps its span.
func (l *spanLog) sample() bool {
	return l.seen.Add(1)%l.every == 0 && !l.full.Load()
}

// add records a span and returns its ID.
func (l *spanLog) add(name string, parent uint64, start, end time.Time) uint64 {
	id := l.reserve()
	l.addID(id, name, parent, start, end)
	return id
}

// reserve hands out an ID for a span whose end is not known yet; close it
// with addID.
func (l *spanLog) reserve() uint64 {
	return l.next.Add(1)
}

func (l *spanLog) addID(id uint64, name string, parent uint64, start, end time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.spans) >= l.limit {
		l.full.Store(true)
		return
	}
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Start: start, End: end})
}

// chromeEvent is one Chrome trace-event ("X" complete event).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the spans as Chrome trace-event JSON (load it in
// Perfetto or chrome://tracing). Timestamps are microseconds from the first
// span; args carry the span and causing-span IDs.
func (l *spanLog) writeChrome(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var base time.Time
	for _, s := range l.spans {
		if base.IsZero() || s.Start.Before(base) {
			base = s.Start
		}
	}
	events := make([]chromeEvent, 0, len(l.spans))
	for _, s := range l.spans {
		events = append(events, chromeEvent{
			Name: s.Name,
			Ph:   "X",
			Ts:   float64(s.Start.Sub(base).Nanoseconds()) / 1e3,
			Dur:  float64(s.End.Sub(s.Start).Nanoseconds()) / 1e3,
			Pid:  1,
			Tid:  1,
			Args: map[string]any{"id": s.ID, "parent": s.Parent},
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"}); err != nil {
		f.Close()
		return fmt.Errorf("encoding trace: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tally counts the units (calls or packets) through one boundary and sums
// their host time.
type tally struct {
	n  int
	ns int64
}

func (t *tally) add(d time.Duration) { t.addN(1, d) }

func (t *tally) addN(n int, d time.Duration) {
	t.n += n
	t.ns += int64(d)
}

// mean is the host ns per unit (0 when nothing crossed the boundary).
func (t *tally) mean() float64 {
	if t.n == 0 {
		return 0
	}
	return float64(t.ns) / float64(t.n)
}
