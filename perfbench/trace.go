package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call from benchmark code into a layer's public function.
// Spans of one request share Req; setup spans have Req 0.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op, so the measured code is identical in
// both modes apart from the clock reads.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
	// delay adds a fixed wait inside every span of the named layer. Only the
	// attribution self-test sets it.
	delay map[string]time.Duration
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// spanRef is an open span. The zero value (from a nil tracer) records nothing.
type spanRef struct {
	t      *tracer
	id     int64
	parent int64
	req    int64
	name   string
	start  time.Time
}

func (t *tracer) open(req, parent int64, name string) spanRef {
	if t == nil {
		return spanRef{}
	}
	return spanRef{t: t, id: t.ids.Add(1), parent: parent, req: req, name: name, start: time.Now()}
}

// root opens the top-level span of a request (req > 0) or of a setup (req 0).
func (t *tracer) root(req int64, name string) spanRef { return t.open(req, 0, name) }

// child opens a span nested in s.
func (s spanRef) child(name string) spanRef { return s.t.open(s.req, s.id, name) }

// end closes the span and records it.
func (s spanRef) end() {
	if s.t == nil {
		return
	}
	if d := s.t.delay[s.name]; d > 0 {
		time.Sleep(d)
	}
	sp := span{
		ID: s.id, Parent: s.parent, Req: s.req, Name: s.name,
		Start: int64(s.start.Sub(s.t.epoch)), End: int64(time.Since(s.t.epoch)),
	}
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, sp)
	s.t.mu.Unlock()
}

// layerTimes is the self time of every span name, summed separately over
// request spans and setup spans, with the number of requests (or setups) that
// called it.
type layerTimes struct {
	reqSelf, setupSelf   map[string]time.Duration
	reqCalls, setupCalls map[string]int
	// coverage is, per request, the share of its root span's wall time that
	// its child spans cover.
	coverage map[int64]float64
}

// selfTimes computes each span's duration minus the part of it that its
// children cover, and sums it per name.
func (t *tracer) selfTimes() layerTimes {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()

	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	lt := layerTimes{
		reqSelf: map[string]time.Duration{}, setupSelf: map[string]time.Duration{},
		reqCalls: map[string]int{}, setupCalls: map[string]int{},
		coverage: map[int64]float64{},
	}
	seenReq := map[string]map[int64]bool{}
	for _, s := range spans {
		dur := s.End - s.Start
		covered := coveredNS(s, children[s.ID])
		self := time.Duration(dur - covered)
		if s.Req == 0 {
			lt.setupSelf[s.Name] += self
			lt.setupCalls[s.Name]++
			continue
		}
		lt.reqSelf[s.Name] += self
		if seenReq[s.Name] == nil {
			seenReq[s.Name] = map[int64]bool{}
		}
		if !seenReq[s.Name][s.Req] {
			seenReq[s.Name][s.Req] = true
			lt.reqCalls[s.Name]++
		}
		if s.Parent == 0 && dur > 0 {
			lt.coverage[s.Req] = float64(covered) / float64(dur)
		}
	}
	return lt
}

// coveredNS returns how many nanoseconds of s the union of kids covers.
func coveredNS(s span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, s.Start), min(k.End, s.End)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	for i, x := range iv {
		if i == 0 || x[0] > curB {
			total += curB - curA
			curA, curB = x[0], x[1]
			continue
		}
		curB = max(curB, x[1])
	}
	return total + curB - curA
}

// perRequestMS is the mean self time, in milliseconds, of a layer over the
// requests that called it, or over the setups when no request did.
func (lt layerTimes) perRequestMS(name string) float64 {
	if n := lt.reqCalls[name]; n > 0 {
		return ms(lt.reqSelf[name]) / float64(n)
	}
	if n := lt.setupCalls[name]; n > 0 {
		return ms(lt.setupSelf[name]) / float64(n)
	}
	return 0
}

// minCoverage is the lowest per-request span coverage.
func (lt layerTimes) minCoverage() float64 {
	if len(lt.coverage) == 0 {
		return 0
	}
	lo := 1.0
	for _, c := range lt.coverage {
		lo = min(lo, c)
	}
	return lo
}

// write stores the spans as JSON lines in dir.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("creating span directory: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", fmt.Errorf("writing spans: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("writing spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("writing spans: %w", err)
	}
	return path, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
