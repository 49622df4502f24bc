package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"eva/internal/analysis"
	"eva/internal/ckks"
	"eva/internal/compile"
	"eva/internal/core"
	"eva/internal/execute"
	"eva/internal/nn"
	"eva/internal/rewrite"
)

// counts are the compiler outputs the compile.* metrics report. Two
// compilations of one program must agree on all of them.
type counts struct {
	Instructions, Rescale, Relinearize, ModSwitch int
	RotationKeys, Primes, LogQP, LogN             int
}

func countsOf(r *compile.Result) counts {
	return countsFrom(r.CompiledStats, len(r.RotationSteps), r.Plan, r.LogN)
}

func countsFrom(st core.Stats, rotations int, plan *analysis.ParameterPlan, logN int) counts {
	c := counts{
		Rescale:      st.Instructions[core.OpRescale.String()],
		Relinearize:  st.Instructions[core.OpRelinearize.String()],
		ModSwitch:    st.Instructions[core.OpModSwitch.String()],
		RotationKeys: rotations,
		Primes:       plan.NumPrimes(),
		LogQP:        plan.LogQP(),
		LogN:         logN,
	}
	for _, n := range st.Instructions {
		c.Instructions += n
	}
	return c
}

// record adds c to the compile.* counters (summed over programs).
func (c counts) record(k *counters) {
	for name, v := range map[string]int{
		"compile.instructions": c.Instructions, "compile.rescale": c.Rescale,
		"compile.relinearize": c.Relinearize, "compile.mod_switch": c.ModSwitch,
		"compile.rotation_keys": c.RotationKeys, "compile.primes": c.Primes,
		"compile.log_qp": c.LogQP, "compile.log_n": c.LogN,
	} {
		k.add(name, float64(v))
	}
}

// compilePasses runs the compiler's public passes one by one, in the order
// compile.Compile runs them, with a span around each. Callers compare the
// result with compile.Compile's, so a pass added to compile.Compile but
// missing here fails the run.
func compilePasses(sc spanRef, input *core.Program, opts compile.Options) (counts, error) {
	if opts.ExtraLevels != 0 {
		return counts{}, fmt.Errorf("compilePasses does not mirror ExtraLevels")
	}
	s := sc.child("compile.prepare")
	if opts.MaxRescaleLog <= 0 {
		opts.MaxRescaleLog = 60
	}
	if err := input.ValidateStructure(true); err != nil {
		s.end()
		return counts{}, err
	}
	prog := input.Clone()
	if opts.Optimize {
		rewrite.Optimize(prog)
	}
	s.end()

	s = sc.child("rewrite.transform")
	err := rewrite.Transform(prog, rewrite.Options{
		MaxRescaleLog: opts.MaxRescaleLog,
		WaterlineLog:  opts.WaterlineLog,
		Rescale:       opts.Rescale,
		ModSwitch:     opts.ModSwitch,
	})
	s.end()
	if err != nil {
		return counts{}, err
	}

	s = sc.child("analysis.validate")
	chains, scales, err := analysis.Validate(prog, opts.MaxRescaleLog)
	s.end()
	if err != nil {
		return counts{}, err
	}

	s = sc.child("analysis.params")
	plan, err := analysis.SelectParameters(prog, chains, scales, opts.MaxRescaleLog)
	var steps []int
	logN := 0
	if err == nil {
		steps = analysis.SelectRotationSteps(prog)
		logN, err = selectLogN(input.VecSize, plan, opts)
	}
	s.end()
	if err != nil {
		return counts{}, err
	}

	s = sc.child("compile.finish")
	prog.InferTypes()
	input.ComputeStats()
	st := prog.ComputeStats()
	s.end()
	return countsFrom(st, len(steps), plan, logN), nil
}

// selectLogN is compile.Compile's ring-degree rule: enough slots for the
// vector size and, unless insecure parameters are allowed, a ring large
// enough for the modulus at 128-bit security.
func selectLogN(vecSize int, plan *analysis.ParameterPlan, opts compile.Options) (int, error) {
	minLogN := max(opts.MinLogN, 10)
	minLogN = max(minLogN, int(math.Ceil(math.Log2(float64(vecSize))))+1)
	if opts.AllowInsecure {
		return minLogN, nil
	}
	return ckks.MinLogNFor(plan.LogQP(), minLogN)
}

// compileNets compiles the five Table 5 networks; one request is the whole
// set.
type compileNets struct {
	e     *env
	nets  []*nn.Network
	progs []*core.Program
	opts  compile.Options
	// want holds each network's counts from the first compilation (the
	// warm-up request, or compile.Compile in the traced setup); every later
	// compilation must reproduce them.
	want     []counts
	compiles []int
	last     []*compile.Result
}

func setupCompileNets(e *env, sc spanRef) (instance, error) {
	w := &compileNets{e: e, opts: compile.DefaultOptions()}
	w.opts.AllowInsecure = true
	rng := rand.New(rand.NewSource(e.seed))
	s := sc.child("bench.build")
	for _, n := range nn.All(nn.BenchConfig()) {
		prog, err := nn.BuildProgram(n, nn.RandomWeights(n, rng))
		if err != nil {
			s.end()
			return nil, err
		}
		w.nets = append(w.nets, n)
		w.progs = append(w.progs, prog)
	}
	s.end()
	w.want = make([]counts, len(w.progs))
	w.compiles = make([]int, len(w.progs))
	w.last = make([]*compile.Result, len(w.progs))
	if e.trace != nil {
		// The traced loop runs the passes one by one; compile.Compile's own
		// counts are the reference they must reproduce.
		s := sc.child("compile.compile")
		for i, p := range w.progs {
			res, err := compile.Compile(p, w.opts)
			if err != nil {
				s.end()
				return nil, fmt.Errorf("compiling %s: %w", w.nets[i].Name, err)
			}
			w.want[i], w.compiles[i], w.last[i] = countsOf(res), 1, res
			countsOf(res).record(e.counts)
		}
		s.end()
	}
	return w, nil
}

func (w *compileNets) request(_ int, sc spanRef) (time.Duration, float64, error) {
	start := time.Now()
	got := make([]counts, len(w.progs))
	for i, p := range w.progs {
		if w.e.trace != nil {
			c, err := compilePasses(sc, p, w.opts)
			if err != nil {
				return time.Since(start), 0, fmt.Errorf("%s: %w", w.nets[i].Name, err)
			}
			got[i] = c
			continue
		}
		res, err := compile.Compile(p, w.opts)
		if err != nil {
			return time.Since(start), 0, fmt.Errorf("compiling %s: %w", w.nets[i].Name, err)
		}
		got[i], w.last[i] = countsOf(res), res
	}
	lat := time.Since(start)
	s := sc.child("bench.check")
	defer s.end()
	for i, c := range got {
		if w.compiles[i] == 0 {
			w.want[i] = c
		} else if c != w.want[i] {
			return lat, 0, fmt.Errorf("%s: compilation %d gave %+v, first gave %+v", w.nets[i].Name, w.compiles[i]+1, c, w.want[i])
		}
		w.compiles[i]++
	}
	return lat, 0, nil
}

// finish requires every network to have been compiled at least twice and the
// compiled programs to compute what the source programs compute: both run
// under the reference executor on one seeded image.
func (w *compileNets) finish() (float64, error) {
	rng := rand.New(rand.NewSource(w.e.seed + 1))
	maxErr := 0.0
	for i, n := range w.nets {
		if w.compiles[i] < 2 {
			return 0, fmt.Errorf("%s compiled %d times; the determinism check needs two", n.Name, w.compiles[i])
		}
		image := nn.RandomImage(n, rng)
		want, err := execute.RunReference(w.progs[i], image)
		if err != nil {
			return 0, err
		}
		got, err := execute.RunReference(w.last[i].Program, image)
		if err != nil {
			return 0, err
		}
		e := maxAbsErr(got["scores"][:n.NumClasses], want["scores"][:n.NumClasses])
		if !(e <= compiledRefBound) {
			return e, fmt.Errorf("%s: compiled program differs from its source by %g under the reference executor", n.Name, e)
		}
		maxErr = math.Max(maxErr, e)
	}
	return maxErr, nil
}

func (w *compileNets) close() {}

// compiledRefBound bounds how far a compiled network's reference output may
// drift from its source's: the compiler only inserts value-preserving
// instructions, so anything beyond float64 rounding is a miscompilation.
const compiledRefBound = 1e-9

func maxAbsErr(got, want []float64) float64 {
	e := 0.0
	for i := range want {
		if i >= len(got) {
			return math.Inf(1)
		}
		e = math.Max(e, math.Abs(got[i]-want[i]))
	}
	return e
}
