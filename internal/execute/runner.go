package execute

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"eva/internal/ckks"
	"eva/internal/compile"
	"eva/internal/core"
	"eva/internal/rewrite"
)

// Scheduler selects how the instruction DAG is scheduled onto worker threads.
type Scheduler int

const (
	// SchedulerParallel is EVA's scheduler: instructions are dispatched
	// asynchronously as soon as their operands are available, exploiting
	// parallelism across kernels.
	SchedulerParallel Scheduler = iota
	// SchedulerBulkSynchronous models the CHET baseline: instructions are
	// executed kernel by kernel, with a barrier between waves, limiting
	// parallelism to what is available inside a single kernel.
	SchedulerBulkSynchronous
	// SchedulerSequential executes instructions one at a time (used for the
	// single-thread measurements of Table 8 and Figure 7).
	SchedulerSequential
)

// RunOptions configures one execution.
type RunOptions struct {
	// Workers is the number of worker goroutines (0 means GOMAXPROCS).
	Workers   int
	Scheduler Scheduler
	// DisableHoisting turns off hoisted rotation batching: every rotation is
	// then an independent key switch, as in the sequential baseline.
	DisableHoisting bool
	// OnHoistedBatch, when non-nil, is called once per dispatched hoisted
	// batch with the number of distinct rotation steps it evaluated. It may be
	// called from any worker goroutine (calls for different batches can be
	// concurrent) and must not call back into the executor.
	OnHoistedBatch func(rotations int)
	// OnInstruction, when non-nil, is called after every completed instruction
	// (leaf INPUT and CONSTANT terms included) with the term and its measured
	// record. It is the executor's only per-instruction output: progress,
	// per-opcode latency and the profiler all read this one stream. Calls are
	// serialized under the run's lock, so Done is strictly increasing, but may
	// come from any worker goroutine; the callback must be fast and must not
	// call back into the executor.
	OnInstruction func(t *core.Term, rec InstrRecord)
}

// InstrRecord is the per-instruction measurement handed to
// RunOptions.OnInstruction: what actually happened when the instruction ran,
// for the profiler to compare against the compiler's static expectations.
type InstrRecord struct {
	// Done counts the instructions completed so far, this one included, out
	// of Total scheduled terms.
	Done, Total int
	// Wall is the instruction's evaluation wall time (backend call only, not
	// queueing). For the first-scheduled member of a hoisted rotation batch it
	// includes the whole batch's shared key-switch work.
	Wall time.Duration
	// Cipher reports whether the result is a ciphertext. Level and Scale are
	// the result ciphertext's post-op level and raw scale (Level is -1 and
	// Scale 0 for plain results).
	Cipher bool
	Level  int
	Scale  float64
	// OutBytes is the result's memory footprint; OperandBytes sums the live
	// footprints of the instruction's operands at completion time.
	OutBytes     int
	OperandBytes int
	Operands     int
	// Hoisted reports membership in a hoisted rotation batch.
	Hoisted bool
}

// value is the run-time value of a term: either a ciphertext or a plain
// vector of the program's vector size.
type value struct {
	ct    *ckks.Ciphertext
	plain []float64
}

func (v *value) bytes() int {
	if v == nil {
		return 0
	}
	if v.ct != nil {
		return v.ct.MemoryBytes()
	}
	return 8 * len(v.plain)
}

// runState carries the shared mutable state of one execution.
type runState struct {
	stdctx  context.Context
	ctx     *Context
	res     *compile.Result
	in      *EncryptedInputs
	vecSize int
	total   int
	onInstr func(t *core.Term, rec InstrRecord)

	// hoist maps each rotation instruction that belongs to a hoistable set
	// (two or more rotations of one Cipher term; see rewrite.RotationSets) to
	// its group. Nil when hoisting is disabled.
	hoist          map[*core.Term]*hoistGroup
	onHoistedBatch func(rotations int)

	mu         sync.Mutex
	values     map[*core.Term]*value
	refcounts  map[*core.Term]int
	liveBytes  int
	liveValues int
	completed  int
	stats      RunStats
	firstErr   error
}

// hoistGroup carries the shared state of one hoistable rotation set during a
// run: whichever member is scheduled first computes the whole batch with one
// shared decomposition (Evaluator.RotateHoisted) and parks the results; the
// remaining members pick theirs up without touching the backend.
type hoistGroup struct {
	members []*core.Term

	mu      sync.Mutex
	results map[*core.Term]*ckks.Ciphertext
	failed  bool
}

// hoistedRotation returns the batch result for member t, computing the batch
// on first use. ok is false when the batch failed (the caller falls back to
// an independent rotation, so a batch error can only ever degrade
// performance, not correctness).
func (st *runState) hoistedRotation(g *hoistGroup, t *core.Term, src *ckks.Ciphertext) (*ckks.Ciphertext, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.failed {
		return nil, false
	}
	if g.results == nil {
		ks := make([]int, len(g.members))
		for i, m := range g.members {
			ks[i] = rewrite.EffectiveRotation(m)
		}
		batch, err := st.ctx.Evaluator.RotateHoisted(src, ks)
		if err != nil {
			g.failed = true
			return nil, false
		}
		g.results = make(map[*core.Term]*ckks.Ciphertext, len(g.members))
		for _, m := range g.members {
			g.results[m] = batch[rewrite.EffectiveRotation(m)]
		}
		st.mu.Lock()
		st.stats.HoistedBatches++
		st.stats.HoistedRotations += len(batch)
		st.mu.Unlock()
		if st.onHoistedBatch != nil {
			st.onHoistedBatch(len(batch))
		}
	}
	ct, ok := g.results[t]
	delete(g.results, t) // each member is consumed exactly once
	return ct, ok
}

// Run executes a compiled program on encrypted inputs using the CKKS backend.
// It is RunContext with a background context (no cancellation).
func Run(ctx *Context, res *compile.Result, in *EncryptedInputs, opts RunOptions) (*Outputs, error) {
	return RunContext(context.Background(), ctx, res, in, opts)
}

// RunContext executes a compiled program on encrypted inputs using the CKKS
// backend. Cancelling stdctx stops the run promptly: workers finish the
// instruction they are evaluating (CKKS kernels are not interruptible
// mid-operation), start no new ones, and RunContext returns the context's
// error.
func RunContext(stdctx context.Context, ctx *Context, res *compile.Result, in *EncryptedInputs, opts RunOptions) (*Outputs, error) {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.Scheduler == SchedulerSequential {
		opts.Workers = 1
	}
	start := time.Now()
	order := res.Program.TopoSort()

	st := &runState{
		stdctx:    stdctx,
		ctx:       ctx,
		res:       res,
		in:        in,
		vecSize:   res.Program.VecSize,
		total:     len(order),
		onInstr:   opts.OnInstruction,
		values:    make(map[*core.Term]*value, len(order)),
		refcounts: make(map[*core.Term]int, len(order)),
	}
	if !opts.DisableHoisting {
		st.onHoistedBatch = opts.OnHoistedBatch
		sets := rewrite.RotationSets(res.Program)
		if len(sets) > 0 {
			st.hoist = make(map[*core.Term]*hoistGroup)
			for _, set := range sets {
				g := &hoistGroup{members: set}
				for _, m := range set {
					st.hoist[m] = g
				}
			}
		}
	}
	outputRefs := map[*core.Term]int{}
	for _, o := range res.Program.Outputs() {
		outputRefs[o.Term]++
	}
	for _, t := range order {
		st.refcounts[t] = t.NumUses() + outputRefs[t]
	}

	var err error
	switch opts.Scheduler {
	case SchedulerParallel, SchedulerSequential:
		err = runParallel(st, order, opts.Workers)
	case SchedulerBulkSynchronous:
		err = runBulkSynchronous(st, order, opts.Workers)
	default:
		err = fmt.Errorf("execute: unknown scheduler %d", opts.Scheduler)
	}
	if err != nil {
		return nil, err
	}

	out := &Outputs{Cipher: map[string]*ckks.Ciphertext{}, Plain: map[string][]float64{}}
	for _, o := range res.Program.Outputs() {
		v := st.values[o.Term]
		if v == nil {
			return nil, fmt.Errorf("execute: output %q was never computed", o.Name)
		}
		if v.ct != nil {
			out.Cipher[o.Name] = v.ct
		} else {
			out.Plain[o.Name] = v.plain
		}
	}
	st.stats.Instructions = len(order)
	st.stats.Workers = opts.Workers
	st.stats.WallTime = time.Since(start)
	out.Stats = st.stats
	return out, nil
}

// runParallel is EVA's asynchronous DAG scheduler: a pool of workers consumes
// a ready queue; finishing a term may make its uses ready.
func runParallel(st *runState, order []*core.Term, workers int) error {
	if workers > len(order) {
		workers = len(order)
	}
	pending := make(map[*core.Term]int, len(order))
	ready := make(chan *core.Term, len(order))
	for _, t := range order {
		n := 0
		seen := map[*core.Term]bool{}
		for _, parm := range t.Parms() {
			if !seen[parm] {
				seen[parm] = true
				n++
			}
		}
		pending[t] = n
		if n == 0 {
			ready <- t
		}
	}

	var mu sync.Mutex // guards pending and remaining
	remaining := len(order)
	done := make(chan struct{})
	var closeDone sync.Once
	var wg sync.WaitGroup
	cancelled := st.stdctx.Done()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				case <-cancelled:
					st.setErr(st.stdctx.Err())
					closeDone.Do(func() { close(done) })
					return
				case t, ok := <-ready:
					if !ok {
						return
					}
					// Re-check cancellation before starting work: the ready
					// branch may win the select race after cancellation.
					select {
					case <-cancelled:
						st.setErr(st.stdctx.Err())
						closeDone.Do(func() { close(done) })
						return
					default:
					}
					if err := st.evalAndStore(t); err != nil {
						st.setErr(err)
						closeDone.Do(func() { close(done) })
						return
					}
					mu.Lock()
					// A child may use t through several slots; count each
					// distinct child only once (mirrors the setup above).
					notified := map[*core.Term]bool{}
					for _, u := range t.Uses() {
						if notified[u] {
							continue
						}
						notified[u] = true
						pending[u]--
						if pending[u] == 0 {
							pending[u] = -1 // guard against double enqueue
							ready <- u
						}
					}
					remaining--
					if remaining == 0 {
						close(ready)
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return st.firstErr
}

// runBulkSynchronous executes the program kernel by kernel: the terms of each
// kernel are processed in waves of ready instructions with a barrier after
// every wave, which is how a statically parallelized kernel library behaves.
func runBulkSynchronous(st *runState, order []*core.Term, workers int) error {
	groups := groupByKernel(order)
	computed := make(map[*core.Term]bool, len(order))
	for _, group := range groups {
		remaining := append([]*core.Term(nil), group...)
		for len(remaining) > 0 {
			if err := st.stdctx.Err(); err != nil {
				return err
			}
			var wave, next []*core.Term
			for _, t := range remaining {
				ok := true
				for _, parm := range t.Parms() {
					if !computed[parm] {
						ok = false
						break
					}
				}
				if ok {
					wave = append(wave, t)
				} else {
					next = append(next, t)
				}
			}
			if len(wave) == 0 {
				return fmt.Errorf("execute: bulk-synchronous scheduler is stuck (cross-kernel dependency cycle)")
			}
			if err := parallelFor(wave, workers, func(t *core.Term) error {
				if err := st.stdctx.Err(); err != nil {
					return err
				}
				return st.evalAndStore(t)
			}); err != nil {
				return err
			}
			for _, t := range wave {
				computed[t] = true
			}
			remaining = next
		}
	}
	return st.firstErr
}

// groupByKernel splits the topologically ordered terms into maximal runs
// sharing the same kernel label; unlabeled terms attach to the current run.
func groupByKernel(order []*core.Term) [][]*core.Term {
	var groups [][]*core.Term
	var cur []*core.Term
	curLabel := ""
	for _, t := range order {
		label := t.Kernel
		if label == "" {
			label = curLabel
		}
		if label != curLabel && len(cur) > 0 {
			groups = append(groups, cur)
			cur = nil
		}
		curLabel = label
		cur = append(cur, t)
	}
	if len(cur) > 0 {
		groups = append(groups, cur)
	}
	return groups
}

func parallelFor(items []*core.Term, workers int, f func(*core.Term) error) error {
	if workers > len(items) {
		workers = len(items)
	}
	if workers <= 1 {
		for _, t := range items {
			if err := f(t); err != nil {
				return err
			}
		}
		return nil
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	work := make(chan *core.Term, len(items))
	for _, t := range items {
		work <- t
	}
	close(work)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range work {
				if err := f(t); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

func (st *runState) setErr(err error) {
	st.mu.Lock()
	if st.firstErr == nil {
		st.firstErr = err
	}
	st.mu.Unlock()
}

func (st *runState) valuePeek(t *core.Term) (*value, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	v, ok := st.values[t]
	return v, ok
}

// evalAndStore computes the value of t, stores it, and releases operand
// values whose last use this was (the executor's memory reuse).
func (st *runState) evalAndStore(t *core.Term) (err error) {
	// The backend assumes well-shaped operands; inputs from untrusted wire
	// formats are validated before they get here, but a panic in a worker
	// goroutine would otherwise kill the whole process, so convert any slip
	// into an ordinary execution error (defense in depth for evaserve).
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("execute: panic evaluating %s: %v", t, r)
		}
	}()
	start := time.Now()
	v, err := st.eval(t)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	st.mu.Lock()
	st.values[t] = v
	vb := v.bytes()
	st.liveBytes += vb
	st.liveValues++
	if st.liveBytes > st.stats.PeakLiveBytes {
		st.stats.PeakLiveBytes = st.liveBytes
	}
	if st.liveValues > st.stats.PeakLiveValues {
		st.stats.PeakLiveValues = st.liveValues
	}
	st.completed++
	if st.onInstr != nil {
		// Operand footprints must be read before the release loop below frees
		// last uses. Invoked under st.mu so calls are serialized and Done is
		// monotone; the callback contract requires it to be fast.
		rec := InstrRecord{
			Done:     st.completed,
			Total:    st.total,
			Wall:     elapsed,
			Level:    -1,
			OutBytes: vb,
			Operands: len(t.Parms()),
			Hoisted:  st.hoist[t] != nil,
		}
		if v.ct != nil {
			rec.Cipher = true
			rec.Level = v.ct.Level
			rec.Scale = v.ct.Scale
		}
		for _, parm := range t.Parms() {
			rec.OperandBytes += st.values[parm].bytes()
		}
		st.onInstr(t, rec)
	}
	// Release operands whose uses are all satisfied: one refcount decrement
	// per (child, slot) use edge consumed by this instruction.
	for _, parm := range t.Parms() {
		st.refcounts[parm]--
		if st.refcounts[parm] == 0 {
			if old := st.values[parm]; old != nil {
				st.liveBytes -= old.bytes()
				st.liveValues--
				st.values[parm] = nil
				st.stats.ReusedValues++
			}
		}
	}
	st.mu.Unlock()
	return nil
}

// operand returns the computed value of a parameter.
func (st *runState) operand(t *core.Term) (*value, error) {
	v, ok := st.valuePeek(t)
	if !ok || v == nil {
		return nil, fmt.Errorf("execute: operand %s not available (scheduling bug or released too early)", t)
	}
	return v, nil
}

// eval dispatches one instruction to the CKKS evaluator (for ciphertext
// values) or to plain vector arithmetic (for unencrypted values).
func (st *runState) eval(t *core.Term) (*value, error) {
	ev := st.ctx.Evaluator
	switch t.Op {
	case core.OpInput:
		if ct, ok := st.in.Cipher[t.Name]; ok {
			return &value{ct: ct}, nil
		}
		if pv, ok := st.in.Plain[t.Name]; ok {
			return &value{plain: pv}, nil
		}
		return nil, fmt.Errorf("execute: no value supplied for input %q", t.Name)
	case core.OpConstant:
		return &value{plain: Replicate(t.Value, st.vecSize)}, nil
	case core.OpNegate:
		a, err := st.operand(t.Parm(0))
		if err != nil {
			return nil, err
		}
		if a.ct == nil {
			return &value{plain: mapVec(a.plain, func(x float64) float64 { return -x })}, nil
		}
		ct, err := ev.Negate(a.ct)
		return &value{ct: ct}, err
	case core.OpAdd, core.OpSub, core.OpMultiply:
		return st.evalBinary(t)
	case core.OpRotateLeft, core.OpRotateRight:
		a, err := st.operand(t.Parm(0))
		if err != nil {
			return nil, err
		}
		k := t.RotateBy
		if t.Op == core.OpRotateRight {
			k = -k
		}
		if a.ct == nil {
			return &value{plain: rotate(a.plain, k)}, nil
		}
		if g := st.hoist[t]; g != nil {
			if ct, ok := st.hoistedRotation(g, t, a.ct); ok {
				return &value{ct: ct}, nil
			}
		}
		ct, err := ev.RotateLeft(a.ct, k)
		return &value{ct: ct}, err
	case core.OpRelinearize:
		a, err := st.operand(t.Parm(0))
		if err != nil {
			return nil, err
		}
		if a.ct == nil {
			return a, nil
		}
		ct, err := ev.Relinearize(a.ct)
		return &value{ct: ct}, err
	case core.OpModSwitch:
		a, err := st.operand(t.Parm(0))
		if err != nil {
			return nil, err
		}
		if a.ct == nil {
			return a, nil
		}
		ct, err := ev.ModSwitch(a.ct)
		return &value{ct: ct}, err
	case core.OpRescale:
		a, err := st.operand(t.Parm(0))
		if err != nil {
			return nil, err
		}
		if a.ct == nil {
			return a, nil
		}
		ct, err := ev.Rescale(a.ct)
		return &value{ct: ct}, err
	default:
		return nil, fmt.Errorf("execute: unsupported opcode %s", t.Op)
	}
}

func (st *runState) evalBinary(t *core.Term) (*value, error) {
	a, err := st.operand(t.Parm(0))
	if err != nil {
		return nil, err
	}
	b, err := st.operand(t.Parm(1))
	if err != nil {
		return nil, err
	}
	ev := st.ctx.Evaluator

	// Plain-plain folds to vector arithmetic.
	if a.ct == nil && b.ct == nil {
		var f func(x, y float64) float64
		switch t.Op {
		case core.OpAdd:
			f = func(x, y float64) float64 { return x + y }
		case core.OpSub:
			f = func(x, y float64) float64 { return x - y }
		default:
			f = func(x, y float64) float64 { return x * y }
		}
		return &value{plain: zipVec(a.plain, b.plain, f)}, nil
	}

	// Cipher-cipher uses the homomorphic evaluator directly.
	if a.ct != nil && b.ct != nil {
		var ct *ckks.Ciphertext
		switch t.Op {
		case core.OpAdd:
			ct, err = ev.Add(a.ct, b.ct)
		case core.OpSub:
			ct, err = ev.Sub(a.ct, b.ct)
		default:
			ct, err = ev.Mul(a.ct, b.ct)
		}
		return &value{ct: ct}, err
	}

	// Mixed cipher-plain: encode the plain operand at the ciphertext's level,
	// at the scale the compiler assigned to the plain term (for products) or
	// at the ciphertext's own scale (for sums, to satisfy Constraint 2 exactly).
	ct, plain, plainTerm, swapped := a.ct, b.plain, t.Parm(1), false
	if ct == nil {
		ct, plain, plainTerm, swapped = b.ct, a.plain, t.Parm(0), true
	}
	var scale float64
	if t.Op == core.OpMultiply {
		scale = math.Exp2(st.res.Scales[plainTerm])
	} else {
		scale = ct.Scale
	}
	pt, err := st.ctx.Encoder.Encode(plain, scale, ct.Level)
	if err != nil {
		return nil, fmt.Errorf("execute: encoding plain operand of %s: %w", t, err)
	}
	var out *ckks.Ciphertext
	switch t.Op {
	case core.OpAdd:
		out, err = ev.AddPlain(ct, pt)
	case core.OpMultiply:
		out, err = ev.MulPlain(ct, pt)
	case core.OpSub:
		if swapped {
			// plain - cipher = -(cipher) + plain.
			neg, nerr := ev.Negate(ct)
			if nerr != nil {
				return nil, nerr
			}
			out, err = ev.AddPlain(neg, pt)
		} else {
			out, err = ev.SubPlain(ct, pt)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("execute: %s: %w", t, err)
	}
	return &value{ct: out}, nil
}
