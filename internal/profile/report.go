package profile

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"time"

	"eva/internal/execute"
	"eva/internal/obs"
)

// Drift event kinds: the compiler's expectation that the sample violated.
const (
	DriftKindLevel = "level" // post-op ciphertext level ≠ expected chain level
	DriftKindScale = "scale" // |log2(scale) − expected| beyond tolerance
	DriftKindCost  = "cost"  // wall time off the cost-model prediction by ≥ factor
)

// ByteBounds are the result-size histogram upper bounds in bytes: 4 KiB
// (plain vectors, tiny rings) through 128 MiB (triple-poly paper-scale
// ciphertexts), geometric by 8x.
var ByteBounds = []float64{1 << 12, 1 << 15, 1 << 18, 1 << 21, 1 << 24, 1 << 27}

// BucketKey identifies one aggregation bucket: opcode × post-op ring level ×
// hoisted-batch membership. Level is -1 for plain (unencrypted) results.
type BucketKey struct {
	Op      string
	Level   int
	Hoisted bool
}

// bucket is the internal aggregate; Bucket is its mergeable wire form. The
// latency histogram is in nanoseconds over obs.InstructionBoundsNS (the
// bounds serve's per-opcode histograms use) and the size histogram in bytes
// over ByteBounds. Both see every sample, so either count is the bucket's.
type bucket struct {
	units   float64
	latency *obs.Histogram
	sizes   *obs.Histogram
}

// bucketAt returns m[k], creating an empty bucket on first use.
func bucketAt(m map[BucketKey]*bucket, k BucketKey) *bucket {
	b := m[k]
	if b == nil {
		b = &bucket{latency: obs.NewHistogram(obs.InstructionBoundsNS), sizes: obs.NewHistogram(ByteBounds)}
		m[k] = b
	}
	return b
}

func (b *bucket) observe(rec execute.InstrRecord, units float64) {
	b.units += units
	b.latency.Observe(float64(rec.Wall))
	b.sizes.Observe(float64(rec.OutBytes))
}

// merge folds o into b. The histogram merges cannot fail: every bucket is
// built over the package bounds (wire input is shape-checked by toInternal).
func (b *bucket) merge(o *bucket) {
	b.units += o.units
	_ = b.latency.Merge(o.latency)
	_ = b.sizes.Merge(o.sizes)
}

// Bucket is one (opcode, level, hoisted) aggregate in wire form. The raw sums
// (TotalNS, Units, Bytes) make buckets mergeable across nodes and process
// restarts without losing the ability to recompute means; MeanUS and
// PredictedUS are derived conveniences.
type Bucket struct {
	Op       string   `json:"op"`
	Level    int      `json:"level"`
	Hoisted  bool     `json:"hoisted,omitempty"`
	Count    uint64   `json:"count"`
	TotalNS  float64  `json:"total_ns"`
	MaxNS    float64  `json:"max_ns"`
	Units    float64  `json:"cost_units,omitempty"`
	Bytes    float64  `json:"bytes"`
	MaxBytes float64  `json:"max_bytes"`
	Latency  []uint64 `json:"latency_buckets"`
	Sizes    []uint64 `json:"byte_buckets"`
	// MeanUS is TotalNS/Count in microseconds; PredictedUS is the calibrated
	// prediction for this bucket's mean cost units, when a calibration is
	// installed.
	MeanUS      float64 `json:"mean_us"`
	PredictedUS float64 `json:"predicted_us,omitempty"`
}

func (w *Bucket) key() BucketKey { return BucketKey{Op: w.Op, Level: w.Level, Hoisted: w.Hoisted} }

// toInternal rebuilds the aggregate from wire form, rejecting a bucket whose
// histograms do not have this build's shape (bucket count, counts summing to
// Count) instead of merging it into the wrong buckets.
func (w *Bucket) toInternal() (*bucket, error) {
	latency, err := obs.HistogramFrom(obs.HistogramSnapshot{
		Bounds: obs.InstructionBoundsNS, Counts: w.Latency, Sum: w.TotalNS, Max: w.MaxNS, Count: w.Count,
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %s bucket at level %d: latency_buckets: %w", w.Op, w.Level, err)
	}
	sizes, err := obs.HistogramFrom(obs.HistogramSnapshot{
		Bounds: ByteBounds, Counts: w.Sizes, Sum: w.Bytes, Max: w.MaxBytes, Count: w.Count,
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %s bucket at level %d: byte_buckets: %w", w.Op, w.Level, err)
	}
	return &bucket{units: w.Units, latency: latency, sizes: sizes}, nil
}

// foldWire shape-checks wire buckets and folds them into m. It converts all
// of them before merging any, so on error m is untouched.
func foldWire(m map[BucketKey]*bucket, ws []Bucket) error {
	in := make([]*bucket, len(ws))
	for i := range ws {
		b, err := ws[i].toInternal()
		if err != nil {
			return err
		}
		in[i] = b
	}
	for i, b := range in {
		bucketAt(m, ws[i].key()).merge(b)
	}
	return nil
}

// wireBuckets renders an aggregate map sorted by (op, level, hoisted),
// deriving means and — when cal is non-nil — calibrated predictions.
func wireBuckets(m map[BucketKey]*bucket, cal *Calibration) []Bucket {
	out := make([]Bucket, 0, len(m))
	for k, b := range m {
		lat, sizes := b.latency.Snapshot(), b.sizes.Snapshot()
		w := Bucket{
			Op:       k.Op,
			Level:    k.Level,
			Hoisted:  k.Hoisted,
			Count:    lat.Count,
			TotalNS:  lat.Sum,
			MaxNS:    lat.Max,
			Units:    b.units,
			Bytes:    sizes.Sum,
			MaxBytes: sizes.Max,
			Latency:  lat.Counts,
			Sizes:    sizes.Counts,
		}
		if lat.Count > 0 {
			w.MeanUS = lat.Sum / float64(lat.Count) / 1e3
			if cal != nil && b.units > 0 {
				w.PredictedUS = cal.PredictNs(k.Op, b.units/float64(lat.Count)) / 1e3
			}
		}
		out = append(out, w)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Op != out[j].Op {
			return out[i].Op < out[j].Op
		}
		if out[i].Level != out[j].Level {
			return out[i].Level < out[j].Level
		}
		return !out[i].Hoisted && out[j].Hoisted
	})
	return out
}

// DriftEvent records one sampled instruction that violated a compiler
// expectation. TraceID links the event to its GET /traces entry when the
// execution ran under a trace.
type DriftEvent struct {
	Kind     string    `json:"kind"`
	Program  string    `json:"program,omitempty"`
	Node     string    `json:"node,omitempty"`
	Op       string    `json:"op"`
	Level    int       `json:"level"`
	Expected float64   `json:"expected"`
	Measured float64   `json:"measured"`
	WallUS   float64   `json:"wall_us"`
	TraceID  string    `json:"trace_id,omitempty"`
	At       time.Time `json:"at"`
}

// ProgramSummary is the per-program roll-up in a Report.
type ProgramSummary struct {
	ProgramID    string `json:"program_id"`
	Executions   uint64 `json:"executions"`
	Instructions uint64 `json:"instructions"`
	Samples      uint64 `json:"samples"`
}

// ProgramProfile is the persisted (store kind "profile") accumulated profile
// of one program: the calibration fit's input.
type ProgramProfile struct {
	ProgramID    string   `json:"program_id"`
	Executions   uint64   `json:"executions"`
	Instructions uint64   `json:"instructions"`
	Samples      uint64   `json:"samples"`
	Buckets      []Bucket `json:"buckets"`
	UpdatedAt    string   `json:"updated_at,omitempty"`
}

// decodeProgramProfile decodes a persisted profile record, rejecting one
// whose buckets do not have this build's histogram shape.
func decodeProgramProfile(data []byte) (*ProgramProfile, error) {
	var p ProgramProfile
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, err
	}
	if err := foldWire(map[BucketKey]*bucket{}, p.Buckets); err != nil {
		return nil, err
	}
	return &p, nil
}

// mergeFrom folds another profile's counters and buckets into p. On error
// (a malformed bucket in either profile) p is unchanged.
func (p *ProgramProfile) mergeFrom(o *ProgramProfile) error {
	m := map[BucketKey]*bucket{}
	if err := foldWire(m, p.Buckets); err != nil {
		return err
	}
	if err := foldWire(m, o.Buckets); err != nil {
		return err
	}
	p.Executions += o.Executions
	p.Instructions += o.Instructions
	p.Samples += o.Samples
	p.Buckets = wireBuckets(m, nil)
	return nil
}

// Report is the GET /profile response body for one node, and (via
// MergeReports) the cluster-merged view.
type Report struct {
	Node            string            `json:"node,omitempty"`
	Enabled         bool              `json:"enabled"`
	SampleRate      int               `json:"sample_rate"`
	Executions      uint64            `json:"executions"`
	Instructions    uint64            `json:"instructions"`
	Samples         uint64            `json:"samples"`
	NsPerUnit       float64           `json:"ns_per_unit,omitempty"`
	LatencyBoundsUS []float64         `json:"latency_bounds_us"`
	ByteBounds      []float64         `json:"byte_bounds"`
	Buckets         []Bucket          `json:"buckets"`
	DriftTotal      uint64            `json:"drift_total"`
	DriftCounts     map[string]uint64 `json:"drift_counts,omitempty"`
	Drift           []DriftEvent      `json:"drift,omitempty"`
	Programs        []ProgramSummary  `json:"programs,omitempty"`
	Calibration     *Calibration      `json:"calibration,omitempty"`
}

func latencyBoundsUS() []float64 {
	out := make([]float64, len(obs.InstructionBoundsNS))
	for i, ns := range obs.InstructionBoundsNS {
		out[i] = ns / 1e3
	}
	return out
}

// Validate checks that a report — typically a peer's /profile response —
// has this build's histogram shape: the same latency and byte bounds, and
// buckets whose histograms fit them. MergeReports skips reports that fail.
func (r *Report) Validate() error {
	if err := r.checkBounds(); err != nil {
		return err
	}
	return foldWire(map[BucketKey]*bucket{}, r.Buckets)
}

func (r *Report) checkBounds() error {
	if !slices.Equal(r.LatencyBoundsUS, latencyBoundsUS()) {
		return fmt.Errorf("profile: latency_bounds_us %v, want %v", r.LatencyBoundsUS, latencyBoundsUS())
	}
	if !slices.Equal(r.ByteBounds, ByteBounds) {
		return fmt.Errorf("profile: byte_bounds %v, want %v", r.ByteBounds, ByteBounds)
	}
	return nil
}

// Report snapshots the collector.
func (c *Collector) Report() Report {
	rep := Report{
		Enabled:         c.Enabled(),
		LatencyBoundsUS: latencyBoundsUS(),
		ByteBounds:      append([]float64(nil), ByteBounds...),
		Buckets:         []Bucket{},
	}
	if c == nil {
		return rep
	}
	rep.Node = c.cfg.Node
	rep.SampleRate = c.cfg.SampleRate
	cal := c.calib.Load()
	rep.Calibration = cal

	c.mu.Lock()
	defer c.mu.Unlock()
	rep.Executions = c.executions
	rep.Instructions = c.instructions
	rep.Samples = c.samples
	if c.totalUnits > 0 {
		rep.NsPerUnit = c.totalNs / c.totalUnits
	}
	rep.Buckets = wireBuckets(c.buckets, cal)
	rep.DriftTotal = c.driftTotal
	if len(c.driftCounts) > 0 {
		rep.DriftCounts = make(map[string]uint64, len(c.driftCounts))
		for k, v := range c.driftCounts {
			rep.DriftCounts[k] = v
		}
	}
	// Ring order → chronological order.
	for i := 0; i < len(c.drift); i++ {
		rep.Drift = append(rep.Drift, c.drift[(c.driftNext+i)%len(c.drift)])
	}
	for id, pa := range c.programs {
		rep.Programs = append(rep.Programs, ProgramSummary{
			ProgramID:    id,
			Executions:   pa.executions,
			Instructions: pa.instructions,
			Samples:      pa.samples,
		})
	}
	sort.Slice(rep.Programs, func(i, j int) bool { return rep.Programs[i].ProgramID < rep.Programs[j].ProgramID })
	return rep
}

// MergeReports combines per-node reports into one cluster view: counters and
// buckets sum (each sample was recorded by exactly one node, so summing never
// double-counts), drift events interleave, and program summaries merge by id.
// A report that fails Validate contributes nothing.
func MergeReports(node string, reports []Report) Report {
	merged := Report{
		Node:            node,
		LatencyBoundsUS: latencyBoundsUS(),
		ByteBounds:      append([]float64(nil), ByteBounds...),
		Buckets:         []Bucket{},
	}
	buckets := map[BucketKey]*bucket{}
	programs := map[string]*ProgramSummary{}
	var totalNs, totalUnits float64
	for _, rep := range reports {
		if rep.checkBounds() != nil || foldWire(buckets, rep.Buckets) != nil {
			continue
		}
		if rep.Enabled {
			merged.Enabled = true
		}
		if rep.SampleRate > merged.SampleRate {
			merged.SampleRate = rep.SampleRate
		}
		merged.Executions += rep.Executions
		merged.Instructions += rep.Instructions
		merged.Samples += rep.Samples
		merged.DriftTotal += rep.DriftTotal
		for k, v := range rep.DriftCounts {
			if merged.DriftCounts == nil {
				merged.DriftCounts = map[string]uint64{}
			}
			merged.DriftCounts[k] += v
		}
		for _, b := range rep.Buckets {
			if !b.Hoisted && b.Units > 0 {
				totalNs += b.TotalNS
				totalUnits += b.Units
			}
		}
		merged.Drift = append(merged.Drift, rep.Drift...)
		for _, ps := range rep.Programs {
			if agg, ok := programs[ps.ProgramID]; ok {
				agg.Executions += ps.Executions
				agg.Instructions += ps.Instructions
				agg.Samples += ps.Samples
			} else {
				cp := ps
				programs[ps.ProgramID] = &cp
			}
		}
		if merged.Calibration == nil {
			merged.Calibration = rep.Calibration
		}
	}
	merged.Buckets = wireBuckets(buckets, merged.Calibration)
	if totalUnits > 0 {
		merged.NsPerUnit = totalNs / totalUnits
	}
	sort.Slice(merged.Drift, func(i, j int) bool { return merged.Drift[i].At.Before(merged.Drift[j].At) })
	if len(merged.Drift) > 256 {
		merged.Drift = merged.Drift[len(merged.Drift)-256:]
	}
	for _, ps := range programs {
		merged.Programs = append(merged.Programs, *ps)
	}
	sort.Slice(merged.Programs, func(i, j int) bool { return merged.Programs[i].ProgramID < merged.Programs[j].ProgramID })
	return merged
}

// WriteProm renders the collector as eva_profile_* Prometheus families.
func (c *Collector) WriteProm(p *obs.PromWriter) {
	rep := c.Report()
	p.Meta("eva_profile_executions_total", "Executions sampled by the instruction profiler.", "counter")
	p.Sample("eva_profile_executions_total", nil, float64(rep.Executions))
	p.Meta("eva_profile_instructions_total", "Instructions seen by the profiler (sampled or skipped).", "counter")
	p.Sample("eva_profile_instructions_total", nil, float64(rep.Instructions))
	p.Meta("eva_profile_samples_total", "Instructions actually sampled (one per sample-rate stride).", "counter")
	p.Sample("eva_profile_samples_total", nil, float64(rep.Samples))
	p.Meta("eva_profile_drift_total", "Sampled instructions diverging from compiler expectations, by kind.", "counter")
	for _, kind := range []string{DriftKindLevel, DriftKindScale, DriftKindCost} {
		p.Sample("eva_profile_drift_total", map[string]string{"kind": kind}, float64(rep.DriftCounts[kind]))
	}
	if rep.NsPerUnit > 0 {
		p.Meta("eva_profile_ns_per_unit", "Measured nanoseconds per abstract cost-model unit (global ratio).", "gauge")
		p.Sample("eva_profile_ns_per_unit", nil, rep.NsPerUnit)
	}
	if len(rep.Buckets) > 0 {
		p.Meta("eva_profile_op_duration_seconds", "Per-instruction wall time by opcode and post-op ring level.", "histogram")
		for i := range rep.Buckets {
			b := &rep.Buckets[i]
			p.Histogram("eva_profile_op_duration_seconds", bucketLabels(b), obs.HistogramSnapshot{
				Bounds: obs.InstructionBoundsNS,
				Counts: b.Latency,
				Sum:    b.TotalNS,
				Count:  b.Count,
			}.Scaled(1e9))
		}
		p.Meta("eva_profile_op_result_bytes", "Per-instruction result footprint by opcode and post-op ring level.", "histogram")
		for i := range rep.Buckets {
			b := &rep.Buckets[i]
			p.Histogram("eva_profile_op_result_bytes", bucketLabels(b), obs.HistogramSnapshot{
				Bounds: ByteBounds,
				Counts: b.Sizes,
				Sum:    b.Bytes,
				Count:  b.Count,
			})
		}
	}
	if cal := rep.Calibration; cal != nil {
		p.Meta("eva_profile_calibration_ns_per_unit", "Fitted per-opcode cost coefficients (ns per cost-model unit).", "gauge")
		for _, op := range sortedKeys(cal.NsPerUnit) {
			p.Sample("eva_profile_calibration_ns_per_unit", map[string]string{"op": op}, cal.NsPerUnit[op])
		}
	}
}

func bucketLabels(b *Bucket) map[string]string {
	return map[string]string{
		"op":      b.Op,
		"level":   strconv.Itoa(b.Level),
		"hoisted": strconv.FormatBool(b.Hoisted),
	}
}

func sortedKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
