package obs

import (
	"slices"
	"testing"
)

func TestHistogramMerge(t *testing.T) {
	a := NewHistogram(InstructionBoundsNS)
	b := NewHistogram(InstructionBoundsNS)
	for _, v := range []float64{500, 1000, 2e6} {
		a.Observe(v)
	}
	for _, v := range []float64{5e9, 3e4} {
		b.Observe(v)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	got := a.Snapshot()
	// 500 and 1000 (inclusive bound) in [0,1µs]; 3e4 in (10µs,100µs];
	// 2e6 in (1ms,10ms]; 5e9 overflows.
	if want := []uint64{2, 0, 1, 0, 1, 0, 0, 1}; !slices.Equal(got.Counts, want) {
		t.Errorf("merged counts %v, want %v", got.Counts, want)
	}
	if got.Count != 5 || got.Sum != 500+1000+2e6+5e9+3e4 || got.Max != 5e9 {
		t.Errorf("merged count/sum/max = %d/%g/%g, want 5/%g/5e9", got.Count, got.Sum, got.Max, 500+1000+2e6+5e9+3e4)
	}
	// The source is unchanged, and merging into an empty histogram copies it.
	if s := b.Snapshot(); s.Count != 2 || s.Max != 5e9 {
		t.Errorf("merge modified its source: %+v", s)
	}
	empty := NewHistogram(InstructionBoundsNS)
	if err := empty.Merge(a); err != nil {
		t.Fatal(err)
	}
	if s := empty.Snapshot(); !slices.Equal(s.Counts, got.Counts) || s.Sum != got.Sum || s.Max != got.Max || s.Count != got.Count {
		t.Errorf("merge into empty = %+v, want %+v", s, got)
	}

	for _, bounds := range [][]float64{DurationBounds, InstructionBoundsNS[:3], {1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 2e9}} {
		h := NewHistogram(bounds)
		h.Observe(1)
		if err := a.Merge(h); err == nil {
			t.Errorf("merging bounds %v into %v succeeded", bounds, InstructionBoundsNS)
		}
	}
	if s := a.Snapshot(); s.Count != got.Count || s.Sum != got.Sum {
		t.Errorf("a rejected merge changed the histogram: %+v", s)
	}
}

func TestHistogramFrom(t *testing.T) {
	h := NewHistogram(DurationBounds)
	h.Observe(0.002)
	h.Observe(30)
	snap := h.Snapshot()
	back, err := HistogramFrom(snap)
	if err != nil {
		t.Fatal(err)
	}
	if rt := back.Snapshot(); !slices.Equal(rt.Counts, snap.Counts) || rt.Sum != snap.Sum || rt.Max != snap.Max || rt.Count != snap.Count {
		t.Errorf("round trip = %+v, want %+v", rt, snap)
	}
	snap.Counts[0] = 7 // the rebuilt histogram owns its counts
	if back.Snapshot().Counts[0] != 0 {
		t.Error("HistogramFrom aliases the snapshot's counts")
	}
	snap.Counts[0] = 0

	for name, bad := range map[string]HistogramSnapshot{
		"short":      {Bounds: DurationBounds, Counts: snap.Counts[:len(snap.Counts)-1], Count: 1},
		"long":       {Bounds: DurationBounds, Counts: append(slices.Clone(snap.Counts), 0), Count: 2},
		"count":      {Bounds: DurationBounds, Counts: snap.Counts, Count: 3},
		"no buckets": {Bounds: DurationBounds},
	} {
		if _, err := HistogramFrom(bad); err == nil {
			t.Errorf("%s: HistogramFrom accepted %+v", name, bad)
		}
	}
}

func TestHistogramScaled(t *testing.T) {
	h := NewHistogram(InstructionBoundsNS)
	h.Observe(2500)
	s := h.Snapshot().Scaled(1e9)
	want := []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1}
	if !slices.Equal(s.Bounds, want) || s.Sum != 2.5e-6 || s.Max != 2.5e-6 || s.Count != 1 {
		t.Errorf("scaled snapshot = %+v", s)
	}
	if InstructionBoundsNS[0] != 1e3 {
		t.Error("Scaled modified the shared bounds")
	}
}
