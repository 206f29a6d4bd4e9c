package main

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call, kept in memory and written out with the run's
// record. Spans of one request share Req. A span whose Replay is set re-ran
// a layer call beside its parent (the parent could not be opened up) instead
// of inside it, so it counts against the parent's self time by duration
// rather than by the interval it covers.
type span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent,omitempty"`
	Req    int64   `json:"req,omitempty"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
	Replay bool    `json:"replay,omitempty"`
}

func (s span) dur() float64 { return s.End - s.Start }

// opPrefix marks root spans that are one end-to-end operation of the
// workload; unattributed time is measured over these.
const opPrefix = "op."

// tracer records spans around the benchmark's calls into the program. A
// nil *tracer records nothing but still times, so the same workload code
// serves the untraced run.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// active is an open span.
type active struct {
	tr     *tracer
	id     int64
	parent int64
	req    int64
	name   string
	beside bool
	start  time.Time
}

// root opens a top-level span for request req.
func (t *tracer) root(name string, req int64) *active {
	a := &active{tr: t, name: name, req: req, start: time.Now()}
	if t != nil {
		a.id = t.next.Add(1)
	}
	return a
}

// child opens a span nested in time inside a.
func (a *active) child(name string) *active {
	c := a.tr.root(name, a.req)
	c.parent = a.id
	return c
}

// replay opens a span that re-runs one of a's layer calls beside it.
func (a *active) replay(name string) *active {
	c := a.child(name)
	c.beside = true
	return c
}

// end closes the span and returns its duration.
func (a *active) end() time.Duration {
	now := time.Now()
	d := now.Sub(a.start)
	if t := a.tr; t != nil {
		s := span{
			ID: a.id, Parent: a.parent, Req: a.req, Name: a.name, Replay: a.beside,
			Start: ms(a.start.Sub(t.t0)), End: ms(now.Sub(t.t0)),
		}
		t.mu.Lock()
		t.spans = append(t.spans, s)
		t.mu.Unlock()
	}
	return d
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// selfTimes returns each span's duration minus the part of it its nested
// children cover and minus its replayed children's durations, keyed by
// span ID.
func (t *tracer) selfTimes() map[int64]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int64]float64, len(t.spans))
	for _, s := range t.spans {
		covered := 0.0
		var nested [][2]float64
		for _, c := range kids[s.ID] {
			if c.Replay {
				covered += c.dur()
			} else {
				nested = append(nested, [2]float64{c.Start, c.End})
			}
		}
		self[s.ID] = s.dur() - covered - unionLength(nested)
	}
	return self
}

// unionLength is the total length covered by a set of intervals.
func unionLength(iv [][2]float64) float64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total, curS, curE := 0.0, 0.0, 0.0
	open := false
	for _, x := range iv {
		if open && x[0] <= curE {
			if x[1] > curE {
				curE = x[1]
			}
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = x[0], x[1], true
	}
	if open {
		total += curE - curS
	}
	return total
}

// durations returns the durations (ms) of every span named name.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// meanMS is the mean duration of spans named name, 0 when none ran.
func (t *tracer) meanMS(name string) float64 {
	d := t.durations(name)
	return ratio(sum(d), float64(len(d)))
}

// unattributed is the share of end-to-end operation time that no layer
// span accounts for: the ops' self time over their duration.
func (t *tracer) unattributed() float64 {
	self := t.selfTimes()
	t.mu.Lock()
	defer t.mu.Unlock()
	var own, total float64
	for _, s := range t.spans {
		if s.Parent == 0 && strings.HasPrefix(s.Name, opPrefix) {
			own += self[s.ID]
			total += s.dur()
		}
	}
	return ratio(own, total)
}

// opResidualMS is the mean self time of the op spans named name.
func (t *tracer) opResidualMS(name string) float64 {
	self := t.selfTimes()
	t.mu.Lock()
	defer t.mu.Unlock()
	var own, n float64
	for _, s := range t.spans {
		if s.Name == name {
			own += self[s.ID]
			n++
		}
	}
	return ratio(own, n)
}
