package serve

import (
	"sort"
	"sync"
	"time"

	"eva/internal/coalesce"
	"eva/internal/handle"
	"eva/internal/jobs"
	"eva/internal/obs"
	"eva/internal/store"
)

// Metrics aggregates service-level counters: per-route request counts, cache
// statistics (taken from the registry at report time), execution counts, and
// per-opcode latency histograms merged from every execution's instruction
// stream (see Server.runBatch). The measured histograms sit next to the
// per-opcode cost predicted by the analysis cost model (the same model the
// bench harness uses), so operators can see whether the service behaves the
// way the model says it should.
type Metrics struct {
	mu         sync.Mutex
	start      time.Time
	requests   map[string]*routeStats
	executions uint64
	execFailed uint64
	execTotal  time.Duration
	perOp      map[string]*obs.Histogram // nanoseconds, obs.InstructionBoundsNS
	// predictedCost accumulates, per opcode, the cost-model estimate of every
	// program compiled by this process (abstract limb-element operations).
	predictedCost map[string]float64
}

// routeStats is one route's request accounting: total count, counts per
// status class ("2xx".."5xx"), and a latency histogram.
type routeStats struct {
	count   uint64
	byClass map[string]uint64
	latency *obs.Histogram
}

// NewMetrics returns an empty metrics collector.
func NewMetrics() *Metrics {
	return &Metrics{
		start:         time.Now(),
		requests:      map[string]*routeStats{},
		perOp:         map[string]*obs.Histogram{},
		predictedCost: map[string]float64{},
	}
}

// statusClass buckets an HTTP status code ("2xx", "4xx", ...).
func statusClass(status int) string {
	if status < 100 || status > 599 {
		return "other"
	}
	return string([]byte{byte('0' + status/100), 'x', 'x'})
}

// RecordRequest counts one request against a route label with its response
// status code and handling latency, so shed 4xx traffic is distinguishable
// from served 2xx traffic.
func (m *Metrics) RecordRequest(route string, status int, d time.Duration) {
	m.mu.Lock()
	rs := m.requests[route]
	if rs == nil {
		rs = &routeStats{byClass: map[string]uint64{}, latency: obs.NewHistogram(obs.DurationBounds)}
		m.requests[route] = rs
	}
	rs.count++
	rs.byClass[statusClass(status)]++
	rs.latency.Observe(d.Seconds())
	m.mu.Unlock()
}

// RecordExecution folds one batch execution into the aggregate: its wall
// time and its per-opcode instruction latency histograms (nanoseconds over
// obs.InstructionBoundsNS).
func (m *Metrics) RecordExecution(wall time.Duration, perOp map[string]*obs.Histogram) {
	m.mu.Lock()
	m.executions++
	m.execTotal += wall
	for op, h := range perOp {
		agg := m.perOp[op]
		if agg == nil {
			agg = obs.NewHistogram(obs.InstructionBoundsNS)
			m.perOp[op] = agg
		}
		_ = agg.Merge(h) // cannot fail: every per-op histogram uses InstructionBoundsNS
	}
	m.mu.Unlock()
}

// RecordExecutionError counts one failed batch execution.
func (m *Metrics) RecordExecutionError() {
	m.mu.Lock()
	m.execFailed++
	m.mu.Unlock()
}

// RecordPredictedCost folds a compiled program's per-opcode cost-model
// estimate into the aggregate.
func (m *Metrics) RecordPredictedCost(byOp map[string]float64) {
	m.mu.Lock()
	for op, c := range byOp {
		m.predictedCost[op] += c
	}
	m.mu.Unlock()
}

// OpHistogram is the wire form of one opcode's latency aggregate.
type OpHistogram struct {
	Count   uint64  `json:"count"`
	TotalMS float64 `json:"total_ms"`
	MeanUS  float64 `json:"mean_us"`
	MaxUS   float64 `json:"max_us"`
	// BucketBounds are the histogram bucket upper bounds in microseconds;
	// the final bucket in Buckets is the overflow bucket.
	BucketBounds []float64 `json:"bucket_bounds_us"`
	Buckets      []uint64  `json:"buckets"`
	// PredictedShare is the opcode's share of the cost model's total
	// predicted cost across all programs compiled by this process.
	PredictedShare float64 `json:"predicted_cost_share"`
}

// MetricsReport is the JSON document served by GET /metrics.
type MetricsReport struct {
	Node          string            `json:"node,omitempty"`
	UptimeSeconds float64           `json:"uptime_seconds"`
	Requests      map[string]uint64 `json:"requests"`
	// RequestsByClass splits each route's count by status class, so 4xx
	// shed traffic is distinguishable from 2xx served traffic.
	RequestsByClass  map[string]map[string]uint64 `json:"requests_by_class"`
	Cache            CacheStats                   `json:"cache"`
	CacheHitRate     float64                      `json:"cache_hit_rate"`
	Executions       uint64                       `json:"executions"`
	ExecutionsFailed uint64                       `json:"executions_failed"`
	ExecTotalMS      float64                      `json:"execution_total_ms"`
	// Jobs reports the async execution subsystem: queue depth, running
	// jobs, admitted-versus-budget bytes, shed/rejected submissions, outcome
	// counters, and the summed queue wait.
	Jobs jobs.Stats `json:"jobs"`
	// Store reports the durable artifact store (entries and bytes per
	// artifact kind, hit/miss traffic); the registry's hit/miss of the
	// cache in front of it is in Cache.StoreLoads / Cache.StoreMisses.
	// Omitted when the server runs without durability.
	Store *store.Stats `json:"store,omitempty"`
	// Coalesce reports cross-request batching: batches dispatched, requests
	// coalesced, per-batch slot occupancy, and the amortized per-request
	// execution cost of the shared runs.
	Coalesce *coalesce.Stats `json:"coalesce,omitempty"`
	// Handles reports the content-addressed ciphertext handle registry:
	// resident entries and bytes against the quota, put/dedup/resolve
	// traffic, and sweep/quota rejections.
	Handles *handle.Stats          `json:"handles,omitempty"`
	PerOp   map[string]OpHistogram `json:"per_op_latency"`
}

// Report snapshots the metrics against the registry's cache counters, the
// job manager's queue counters, and the artifact store's contents.
func (m *Metrics) Report(cache CacheStats, jobStats jobs.Stats, storeStats *store.Stats) MetricsReport {
	m.mu.Lock()
	defer m.mu.Unlock()

	bounds := make([]float64, len(obs.InstructionBoundsNS))
	for i, ns := range obs.InstructionBoundsNS {
		bounds[i] = ns / 1e3
	}
	var predictedTotal float64
	for _, c := range m.predictedCost {
		predictedTotal += c
	}
	perOp := make(map[string]OpHistogram, len(m.perOp))
	ops := make([]string, 0, len(m.perOp))
	for op := range m.perOp {
		ops = append(ops, op)
	}
	for op := range m.predictedCost {
		if _, ok := m.perOp[op]; !ok {
			ops = append(ops, op)
		}
	}
	sort.Strings(ops)
	for _, op := range ops {
		h := OpHistogram{BucketBounds: bounds}
		if agg := m.perOp[op]; agg != nil {
			snap := agg.Snapshot()
			h.Count = snap.Count
			h.TotalMS = snap.Sum / 1e6
			if snap.Count > 0 {
				h.MeanUS = snap.Sum / float64(snap.Count) / 1e3
			}
			h.MaxUS = snap.Max / 1e3
			h.Buckets = snap.Counts
		}
		if predictedTotal > 0 {
			h.PredictedShare = m.predictedCost[op] / predictedTotal
		}
		perOp[op] = h
	}

	requests := make(map[string]uint64, len(m.requests))
	byClass := make(map[string]map[string]uint64, len(m.requests))
	for k, rs := range m.requests {
		requests[k] = rs.count
		classes := make(map[string]uint64, len(rs.byClass))
		for c, n := range rs.byClass {
			classes[c] = n
		}
		byClass[k] = classes
	}
	return MetricsReport{
		UptimeSeconds:    time.Since(m.start).Seconds(),
		Requests:         requests,
		RequestsByClass:  byClass,
		Cache:            cache,
		CacheHitRate:     cache.HitRate(),
		Executions:       m.executions,
		ExecutionsFailed: m.execFailed,
		ExecTotalMS:      float64(m.execTotal) / float64(time.Millisecond),
		Jobs:             jobStats,
		Store:            storeStats,
		PerOp:            perOp,
	}
}
