package obs

import (
	"fmt"
	"slices"
)

// Histogram is a fixed-bound histogram shaped for Prometheus cumulative
// exposition. Values are in the unit of its bounds (seconds for
// DurationBounds, nanoseconds for InstructionBoundsNS, bytes for size
// histograms). It is NOT internally synchronized: the owner (Tracer,
// serve.Metrics, a profile bucket) guards it with its own lock, which keeps
// the hot Observe path to a couple of adds under an already-held lock.
type Histogram struct {
	bounds []float64 // upper bounds, ascending; +Inf implied
	counts []uint64  // len(bounds)+1; last is overflow
	sum    float64
	max    float64
	total  uint64
}

// DurationBounds are the default request/phase latency bucket upper bounds
// (seconds): 1ms to 10s, roughly geometric.
var DurationBounds = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10}

// InstructionBoundsNS are the per-instruction latency bucket upper bounds
// (nanoseconds): 1µs to 1s by decades, spanning element-wise ops on small
// rings to key switching on paper-scale rings. Every per-opcode histogram —
// serve's per_op_latency and the profiler's /profile buckets — uses them.
// Nanoseconds keep sums of time.Duration samples exact, so histograms merge
// and round-trip through JSON without rounding.
var InstructionBoundsNS = []float64{1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9}

// NewHistogram builds a histogram over the given ascending upper bounds.
// The bounds slice is retained, not copied.
func NewHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

// HistogramFrom rebuilds a histogram from a snapshot, typically one decoded
// from outside the process. It rejects a snapshot whose bucket counts do not
// match its bounds or do not sum to its Count, so a malformed input can never
// be merged into the wrong buckets.
func HistogramFrom(s HistogramSnapshot) (*Histogram, error) {
	if len(s.Counts) != len(s.Bounds)+1 {
		return nil, fmt.Errorf("obs: histogram has %d buckets, want %d", len(s.Counts), len(s.Bounds)+1)
	}
	var n uint64
	for _, c := range s.Counts {
		n += c
	}
	if n != s.Count {
		return nil, fmt.Errorf("obs: histogram buckets sum to %d, want count %d", n, s.Count)
	}
	return &Histogram{bounds: s.Bounds, counts: slices.Clone(s.Counts), sum: s.Sum, max: s.Max, total: s.Count}, nil
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.sum += v
	if v > h.max {
		h.max = v
	}
	h.total++
}

// Merge folds o into h. Both must have the same bounds.
func (h *Histogram) Merge(o *Histogram) error {
	if !slices.Equal(h.bounds, o.bounds) {
		return fmt.Errorf("obs: merging histograms over bounds %v and %v", h.bounds, o.bounds)
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.sum += o.sum
	h.max = max(h.max, o.max)
	h.total += o.total
	return nil
}

// HistogramSnapshot is a point-in-time copy safe to render after the
// owner's lock is released.
type HistogramSnapshot struct {
	Bounds []float64 // upper bounds, ascending; +Inf implied
	Counts []uint64  // per-bucket (non-cumulative); len(Bounds)+1
	Sum    float64   // sum of observed values
	Max    float64   // largest observed value (0 when empty)
	Count  uint64    // total observations
}

// Snapshot copies the histogram. Call with the owner's lock held.
func (h *Histogram) Snapshot() HistogramSnapshot {
	return HistogramSnapshot{
		Bounds: h.bounds,
		Counts: append([]uint64(nil), h.counts...),
		Sum:    h.sum,
		Max:    h.max,
		Count:  h.total,
	}
}

// Scaled re-expresses the snapshot in a unit div times larger, dividing
// bounds, sum and max by div (Scaled(1e9) turns nanoseconds into seconds).
// Counts are shared, not copied.
func (s HistogramSnapshot) Scaled(div float64) HistogramSnapshot {
	bounds := make([]float64, len(s.Bounds))
	for i, b := range s.Bounds {
		bounds[i] = b / div
	}
	return HistogramSnapshot{Bounds: bounds, Counts: s.Counts, Sum: s.Sum / div, Max: s.Max / div, Count: s.Count}
}
