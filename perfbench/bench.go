package main

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// workload is one traffic mix the benchmark can run.
type workload struct {
	name string
	// clients is the number of closed-loop callers; none uses more than the
	// two cores of the machine the workloads were sized on.
	clients int
	// warmup is the number of requests each client makes before the clock
	// starts. They are checked and counted as attempted, but not timed.
	warmup int
	// tailPct is the percentile reported as latency_tail_ms: the highest one
	// that leaves at least ten samples beyond it at the configured run length.
	tailPct float64
	setup   func(e *env, sc spanRef) (instance, error)
}

// instance is a set-up workload, ready for requests.
type instance interface {
	// request runs one request for client c and checks its output. lat is
	// the latency the client sees (the output check excluded); maxErr is the
	// largest absolute output error against the reference.
	request(c int, sc spanRef) (lat time.Duration, maxErr float64, err error)
	// finish runs the run-level checks after the timed phase and returns the
	// largest output error they measured.
	finish() (maxErr float64, err error)
	close()
}

// env is what a workload's setup receives.
type env struct {
	seed    int64
	clients int
	trace   *tracer
	// counts collects the per-layer counts of the traced run; nil otherwise.
	counts *counters
}

var workloads = map[string]*workload{
	"cnn-infer":    {name: "cnn-infer", clients: 1, warmup: 2, tailPct: 80, setup: setupCNN},
	"svc-regress":  {name: "svc-regress", clients: 2, warmup: 8, tailPct: 99.5, setup: setupSvc},
	"compile-nets": {name: "compile-nets", clients: 1, warmup: 1, tailPct: 85, setup: setupCompileNets},
}

type runOptions struct {
	seed     int64
	seconds  float64
	traced   bool
	spansDir string
	// delay is passed to the tracer (attribution self-test only).
	delay map[string]time.Duration
	// clients overrides the workload's client count when positive (tests).
	clients int
}

// The untraced run sets the workload up at least minSetups times, and more
// while the set-ups so far took under setupBudget, up to maxSetups. It
// reports the median as setup_s and keeps the last instance for the loop.
// Cheap set-ups repeat more, which steadies their median.
const (
	minSetups   = 3
	maxSetups   = 15
	setupBudget = 2 * time.Second
)

// report is the outcome of one run.
type report struct {
	correct           bool
	attempted, failed int
	metrics           map[string]metric
	notes             []string
	layers            layerTimes
}

type sample struct {
	lat    time.Duration
	maxErr float64
	err    error
}

func runWorkload(w *workload, o runOptions) (*report, error) {
	e := &env{seed: o.seed, clients: w.clients}
	if o.clients > 0 {
		e.clients = o.clients
	}
	minN, maxN := minSetups, maxSetups
	if o.traced {
		e.trace = newTracer()
		e.trace.delay = o.delay
		e.counts = newCounters()
		minN, maxN = 1, 1
	}

	var inst instance
	var setupTimes []float64
	var setupTotal time.Duration
	for i := 0; i < minN || (i < maxN && setupTotal < setupBudget); i++ {
		if inst != nil {
			inst.close()
			inst = nil
			runtime.GC()
			debug.FreeOSMemory()
		}
		start := time.Now()
		sc := e.trace.root(0, "setup")
		var err error
		inst, err = w.setup(e, sc)
		sc.end()
		if err != nil {
			return nil, fmt.Errorf("%s: setup: %w", w.name, err)
		}
		setupTotal += time.Since(start)
		setupTimes = append(setupTimes, time.Since(start).Seconds())
	}
	defer inst.close()

	var reqIDs atomic.Int64
	var mu sync.Mutex
	var warm, timed []sample
	runClient := func(c int, n int, deadline time.Time, into *[]sample) {
		for i := 0; n < 0 || i < n; i++ {
			if n < 0 && !time.Now().Before(deadline) {
				return
			}
			sc := e.trace.root(reqIDs.Add(1), "request")
			lat, maxErr, err := inst.request(c, sc)
			sc.end()
			mu.Lock()
			*into = append(*into, sample{lat: lat, maxErr: maxErr, err: err})
			mu.Unlock()
		}
	}
	parallel := func(f func(c int)) {
		var wg sync.WaitGroup
		for c := 0; c < e.clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				f(c)
			}()
		}
		wg.Wait()
	}
	parallel(func(c int) { runClient(c, w.warmup, time.Time{}, &warm) })
	start := time.Now()
	deadline := start.Add(time.Duration(o.seconds * float64(time.Second)))
	parallel(func(c int) { runClient(c, -1, deadline, &timed) })
	elapsed := time.Since(start)

	rep := &report{correct: true, metrics: map[string]metric{}}
	maxErr := 0.0
	var firstErr error
	for _, s := range append(append([]sample(nil), warm...), timed...) {
		rep.attempted++
		maxErr = math.Max(maxErr, s.maxErr)
		if s.err != nil {
			rep.failed++
			if firstErr == nil {
				firstErr = s.err
			}
		}
	}
	finErr, err := inst.finish()
	if err != nil {
		rep.correct = false
		rep.notes = append(rep.notes, "run check failed: "+err.Error())
	}
	maxErr = math.Max(maxErr, finErr)
	if rep.failed > 0 {
		rep.correct = false
		rep.notes = append(rep.notes, fmt.Sprintf("%d of %d requests failed; first: %v", rep.failed, rep.attempted, firstErr))
	}

	var lats []float64
	ok := 0
	for _, s := range timed {
		if s.err == nil {
			ok++
		}
		lats = append(lats, ms(s.lat))
	}
	sort.Float64s(lats)
	if len(lats) == 0 {
		return nil, fmt.Errorf("%s: no request completed in %gs", w.name, o.seconds)
	}
	if !o.traced {
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		rep.metrics["throughput_rps"] = metric{float64(ok) / elapsed.Seconds(), "1/s"}
		rep.metrics["latency_p50_ms"] = metric{percentile(lats, 50), "ms"}
		rep.metrics["latency_tail_ms"] = metric{percentile(lats, w.tailPct), "ms"}
		rep.metrics["setup_s"] = metric{median(setupTimes), "s"}
		rep.metrics["peak_rss_mb"] = metric{rss, "MB"}
		rep.metrics["precision_bits"] = metric{precisionBits(maxErr), "bits"}
		rep.notes = append(rep.notes, fmt.Sprintf("latency_tail_ms is p%g of %d timed requests; setup_s is the median of %d set-ups", w.tailPct, len(lats), len(setupTimes)))
		return rep, nil
	}

	rep.layers = e.trace.selfTimes()
	rep.metrics = layerMetrics(rep.layers, e.counts)
	rep.metrics["trace.latency_p50_ms"] = metric{percentile(lats, 50), "ms"}
	path, err := e.trace.write(o.spansDir, w.name, o.seed)
	if err != nil {
		return nil, err
	}
	rep.notes = append(rep.notes, "spans written to "+path)
	return rep, nil
}

// counters collects the per-layer counts the traced run reads from results
// rather than from spans. A nil *counters ignores everything.
type counters struct {
	mu   sync.Mutex
	sum  map[string]float64
	n    map[string]int
	peak map[string]float64
}

func newCounters() *counters {
	return &counters{sum: map[string]float64{}, n: map[string]int{}, peak: map[string]float64{}}
}

// add adds one observation of name.
func (c *counters) add(name string, v float64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.sum[name] += v
	c.n[name]++
	c.peak[name] = math.Max(c.peak[name], v)
	c.mu.Unlock()
}

func (c *counters) mean(name string) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.n[name] == 0 {
		return 0
	}
	return c.sum[name] / float64(c.n[name])
}

func (c *counters) total(name string) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sum[name]
}

func (c *counters) max(name string) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.peak[name]
}

// opcodes are the evaluator operations reported as op.<opcode>.ms/.count.
var opcodes = []string{"rotate_left", "rotate_right", "multiply", "add", "rescale", "relinearize", "mod_switch"}

// spanLayers are the per-layer metrics read from span self times: metric
// <span>_ms is the mean self time of span <span> per request that calls it,
// or per setup for layers called only during setup.
var spanLayers = []string{
	"rewrite.transform", "analysis.validate", "analysis.params",
	"ckks.keygen", "ckks.encode", "ckks.encrypt", "ckks.decrypt", "ckks.decode",
	"execute.run",
	"wire.encode", "wire.decode",
	"http.execute", "http.submit", "http.wait", "http.fetch",
}

// compileCounts are the compile.* metrics, read from compile.Result.
var compileCounts = []string{
	"compile.instructions", "compile.rescale", "compile.relinearize", "compile.mod_switch",
	"compile.rotation_keys", "compile.primes", "compile.log_qp", "compile.log_n",
}

// layerMetrics builds every per-layer metric. A layer a workload never calls
// reports 0.
func layerMetrics(lt layerTimes, c *counters) map[string]metric {
	m := map[string]metric{}
	for _, name := range spanLayers {
		m[name+"_ms"] = metric{lt.perRequestMS(name), "ms"}
	}
	for _, name := range compileCounts {
		m[name] = metric{c.total(name), "count"}
	}
	m["compile.log_qp"] = metric{c.total("compile.log_qp"), "bits"}
	m["ckks.eval_keys_mb"] = metric{c.max("ckks.eval_keys_mb"), "MB"}

	busy := 0.0
	if d := c.total("execute.capacity_ns"); d > 0 {
		busy = c.total("execute.instr_ns") / d
	}
	m["execute.busy_ratio"] = metric{busy, "ratio"}
	m["execute.hoisted_batches"] = metric{c.mean("execute.hoisted_batches"), "count"}
	m["execute.hoisted_rotations"] = metric{c.mean("execute.hoisted_rotations"), "count"}
	m["execute.peak_live_mb"] = metric{c.max("execute.peak_live_mb"), "MB"}
	for _, op := range opcodes {
		m["op."+op+".ms"] = metric{c.mean("op." + op + ".ms"), "ms"}
		m["op."+op+".count"] = metric{c.mean("op." + op + ".count"), "count"}
	}
	m["wire.request_kb"] = metric{c.mean("wire.request_kb"), "KB"}
	m["wire.response_kb"] = metric{c.mean("wire.response_kb"), "KB"}
	m["serve.queue_wait_ms"] = metric{c.mean("serve.queue_wait_ms"), "ms"}
	m["serve.execute_ms"] = metric{c.mean("serve.execute_ms"), "ms"}
	m["serve.unattributed_ms"] = metric{c.mean("serve.unattributed_ms"), "ms"}
	m["jobs.shed"] = metric{c.total("jobs.shed"), "count"}
	m["trace.coverage_min_pct"] = metric{100 * lt.minCoverage(), "%"}
	return m
}

// percentile returns the nearest-rank p-th percentile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// precisionBits is -log2 of the largest absolute error, capped at the 52
// fraction bits of a float64 (an exact match). An infinite or NaN error,
// which always fails its request's check, reads -64 so the result stays
// valid JSON.
func precisionBits(maxErr float64) float64 {
	if math.IsNaN(maxErr) || math.IsInf(maxErr, 1) {
		return -64
	}
	return math.Min(52, -math.Log2(maxErr))
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	return 0, errors.New("reading peak RSS: no VmHWM line in /proc/self/status")
}
