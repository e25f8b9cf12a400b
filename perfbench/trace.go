package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside the program:
// the benchmark wraps the public function, seam or transport it calls.
type span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent,omitempty"`
	Name   string  `json:"name"`
	Job    string  `json:"job,omitempty"` // shared by every span of one request (job, point, lease)
	Start  float64 `json:"start_s"`       // seconds since the tracer started
	End    float64 `json:"end_s"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so workloads call it
// unconditionally and pay nothing when tracing is off.
type tracer struct {
	t0     time.Time
	mu     sync.Mutex
	next   int64
	spans  []span
	counts map[string]float64
}

func newTracer() *tracer { return &tracer{t0: time.Now(), counts: map[string]float64{}} }

// count adds x to the counter called name.
func (t *tracer) count(name string, x float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += x
	t.mu.Unlock()
}

func (t *tracer) counters() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]float64, len(t.counts))
	for k, x := range t.counts {
		out[k] = x
	}
	return out
}

type spanKey struct{}

// ref identifies an open span; the zero ref is "no span".
type ref struct {
	id  int64
	job string
}

// begin opens a span under parent and returns a finish function that
// records it. job, when empty, is inherited from the parent.
func (t *tracer) begin(parent ref, name, job string) (ref, func()) {
	if t == nil {
		return ref{}, func() {}
	}
	if job == "" {
		job = parent.job
	}
	start := time.Since(t.t0).Seconds()
	t.mu.Lock()
	t.next++
	r := ref{id: t.next, job: job}
	t.mu.Unlock()
	return r, func() {
		end := time.Since(t.t0).Seconds()
		t.mu.Lock()
		t.spans = append(t.spans, span{ID: r.id, Parent: parent.id, Name: name, Job: job, Start: start, End: end})
		t.mu.Unlock()
	}
}

// add records an already-measured interval.
func (t *tracer) add(parent ref, name, job string, start, end time.Time) {
	if t == nil {
		return
	}
	if job == "" {
		job = parent.job
	}
	t.mu.Lock()
	t.next++
	t.spans = append(t.spans, span{ID: t.next, Parent: parent.id, Name: name, Job: job,
		Start: start.Sub(t.t0).Seconds(), End: end.Sub(t.t0).Seconds()})
	t.mu.Unlock()
}

func withSpan(ctx context.Context, r ref) context.Context {
	return context.WithValue(ctx, spanKey{}, r)
}

func spanFrom(ctx context.Context) ref {
	r, _ := ctx.Value(spanKey{}).(ref)
	return r
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval covered by its children (overlapping children are merged,
// and children are clipped to the parent).
func selfTimes(spans []span) map[string]float64 {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals clipped
// to the parent's.
func covered(p span, kids []span) float64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]float64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, p.Start), min(k.End, p.End)
		if b > a {
			iv = append(iv, [2]float64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total, curA, curB := 0.0, 0.0, -1.0
	for _, x := range iv {
		if x[0] > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = x[0], x[1]
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// durations returns the durations of the spans called name.
func durations(spans []span, name string) []float64 {
	var d []float64
	for _, s := range spans {
		if s.Name == name {
			d = append(d, s.dur())
		}
	}
	return d
}

// writeSpans writes the spans as one JSON array to path.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	buf, err := json.Marshal(spans)
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	return os.WriteFile(path, buf, 0o644)
}
