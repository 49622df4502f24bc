// Package bench is the experiment harness that regenerates every table and
// figure of the paper's evaluation (Section 8). It is used both by the
// cmd/evabench command-line tool and by the repository's Go benchmarks, so
// that `go test -bench` and the CLI print the same rows the paper reports.
package bench

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"text/tabwriter"
	"time"

	"eva/internal/apps"
	"eva/internal/chet"
	"eva/internal/ckks"
	"eva/internal/compile"
	"eva/internal/core"
	"eva/internal/execute"
	"eva/internal/nn"
)

// Options configures the experiment harness.
type Options struct {
	// Config selects the network instantiation size (nn.BenchConfig by default).
	Config nn.Config
	// Workers is the number of executor threads (0 = GOMAXPROCS), the
	// "56 threads" column of Table 5.
	Workers int
	// Secure selects 128-bit-secure parameters (the paper's setting); when
	// false, scaled-down insecure parameters are allowed so the experiments
	// run quickly on small rings.
	Secure bool
	// Seed drives all randomness (weights, inputs, keys) for reproducibility.
	Seed int64
	// Trials is the number of inference runs averaged for latency numbers.
	Trials int
}

// DefaultOptions returns the scaled-down configuration used by `go test -bench`.
func DefaultOptions() Options {
	return Options{Config: nn.BenchConfig(), Workers: 0, Secure: false, Seed: 1, Trials: 1}
}

func (o Options) normalize() Options {
	if o.Config.InputSize == 0 {
		o.Config = nn.BenchConfig()
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Trials <= 0 {
		o.Trials = 1
	}
	return o
}

// PipelineResult holds the measurements of one compiler pipeline (EVA or the
// CHET baseline) on one network.
type PipelineResult struct {
	Name        string
	CompileTime time.Duration
	ContextTime time.Duration
	EncryptTime time.Duration
	RunTime     time.Duration
	DecryptTime time.Duration

	LogN, LogQ, LogQP, Primes int
	RotationKeys              int
	Instructions              int

	Scores    []float64
	MaxError  float64
	AgreesRef bool
	Stats     execute.RunStats
}

// NetworkResult bundles the EVA and CHET measurements for one network.
type NetworkResult struct {
	Network   *nn.Network
	Reference []float64
	EVA       *PipelineResult
	CHET      *PipelineResult
}

// Speedup returns CHET latency divided by EVA latency (the Table 5 column).
func (r *NetworkResult) Speedup() float64 {
	if r.EVA.RunTime <= 0 {
		return 0
	}
	return float64(r.CHET.RunTime) / float64(r.EVA.RunTime)
}

// RunNetwork builds, compiles (with both pipelines), and executes one network
// on a random model and image, measuring everything Tables 4-7 need.
func RunNetwork(net *nn.Network, opts Options) (*NetworkResult, error) {
	opts = opts.normalize()
	rng := rand.New(rand.NewSource(opts.Seed))
	weights := nn.RandomWeights(net, rng)
	prog, err := nn.BuildProgram(net, weights)
	if err != nil {
		return nil, fmt.Errorf("bench: building %s: %w", net.Name, err)
	}
	image := nn.RandomImage(net, rng)
	ref, err := execute.RunReference(prog, image)
	if err != nil {
		return nil, fmt.Errorf("bench: reference inference for %s: %w", net.Name, err)
	}
	refScores := ref["scores"][:net.NumClasses]

	result := &NetworkResult{Network: net, Reference: refScores}

	copts := compile.DefaultOptions()
	copts.AllowInsecure = !opts.Secure

	evaCompile := func() (*compile.Result, error) { return compile.Compile(prog, copts) }
	chetCompile := func() (*compile.Result, error) { return chet.Compile(prog, copts) }

	result.EVA, err = runCompilerPipeline("EVA", evaCompile, execute.RunOptions{Workers: opts.Workers, Scheduler: execute.SchedulerParallel}, image, refScores, net.NumClasses, opts)
	if err != nil {
		return nil, fmt.Errorf("bench: EVA pipeline for %s: %w", net.Name, err)
	}
	result.CHET, err = runCompilerPipeline("CHET", chetCompile, chet.RunOptions(opts.Workers), image, refScores, net.NumClasses, opts)
	if err != nil {
		return nil, fmt.Errorf("bench: CHET pipeline for %s: %w", net.Name, err)
	}
	return result, nil
}

func runCompilerPipeline(name string, compileFn func() (*compile.Result, error), ropts execute.RunOptions,
	image execute.Inputs, refScores []float64, numClasses int, opts Options) (*PipelineResult, error) {

	pr := &PipelineResult{Name: name}
	start := time.Now()
	res, err := compileFn()
	if err != nil {
		return nil, err
	}
	pr.CompileTime = time.Since(start)
	pr.LogN = res.LogN
	pr.LogQ = res.Plan.LogQ()
	pr.LogQP = res.Plan.LogQP()
	pr.Primes = res.Plan.NumPrimes()
	pr.RotationKeys = len(res.RotationSteps)
	pr.Instructions = res.CompiledStats.Terms

	prng := ckks.NewTestPRNG(uint64(opts.Seed) + 1000)
	ctx, keys, err := execute.NewContext(res, prng)
	if err != nil {
		return nil, err
	}
	pr.ContextTime = ctx.KeyGenTime

	enc, err := execute.EncryptInputs(ctx, res, keys, image, prng)
	if err != nil {
		return nil, err
	}
	pr.EncryptTime = enc.EncryptTime

	var out *execute.Outputs
	var total time.Duration
	for trial := 0; trial < opts.Trials; trial++ {
		start = time.Now()
		out, err = execute.Run(ctx, res, enc, ropts)
		if err != nil {
			return nil, err
		}
		total += time.Since(start)
	}
	pr.RunTime = total / time.Duration(opts.Trials)
	pr.Stats = out.Stats

	dec, decTime := execute.DecryptOutputs(ctx, res, keys, out)
	pr.DecryptTime = decTime
	pr.Scores = dec["scores"][:numClasses]
	for i := range refScores {
		if e := math.Abs(pr.Scores[i] - refScores[i]); e > pr.MaxError {
			pr.MaxError = e
		}
	}
	pr.AgreesRef = nn.Argmax(pr.Scores, numClasses) == nn.Argmax(refScores, numClasses)
	return pr, nil
}

// AppResult holds one row of Table 8.
type AppResult struct {
	App         *apps.App
	CompileTime time.Duration
	RunTime     time.Duration
	MaxError    float64
	VectorSize  int
	LogN, LogQ  int
	Primes      int
}

// RunApplication measures one application of Table 8 on a single thread, as
// in the paper.
func RunApplication(app *apps.App, opts Options) (*AppResult, error) {
	opts = opts.normalize()
	rng := rand.New(rand.NewSource(opts.Seed))
	in := app.MakeInputs(rng)
	want := app.Plain(in)

	copts := compile.DefaultOptions()
	copts.AllowInsecure = !opts.Secure
	start := time.Now()
	res, err := compile.Compile(app.Program, copts)
	if err != nil {
		return nil, fmt.Errorf("bench: compiling %s: %w", app.Name, err)
	}
	r := &AppResult{
		App: app, CompileTime: time.Since(start), VectorSize: app.Program.VecSize,
		LogN: res.LogN, LogQ: res.Plan.LogQ(), Primes: res.Plan.NumPrimes(),
	}
	prng := ckks.NewTestPRNG(uint64(opts.Seed) + 2000)
	ctx, keys, err := execute.NewContext(res, prng)
	if err != nil {
		return nil, err
	}
	enc, err := execute.EncryptInputs(ctx, res, keys, in, prng)
	if err != nil {
		return nil, err
	}
	var out *execute.Outputs
	var total time.Duration
	for trial := 0; trial < opts.Trials; trial++ {
		start = time.Now()
		out, err = execute.Run(ctx, res, enc, execute.RunOptions{Workers: 1, Scheduler: execute.SchedulerSequential})
		if err != nil {
			return nil, err
		}
		total += time.Since(start)
	}
	r.RunTime = total / time.Duration(opts.Trials)
	dec, _ := execute.DecryptOutputs(ctx, res, keys, out)
	for name, w := range want {
		g := dec[name]
		for i := range w {
			if e := math.Abs(g[i] - w[i]); e > r.MaxError {
				r.MaxError = e
			}
		}
	}
	return r, nil
}

// ScalingPoint is one measurement of Figure 7: a network, a compiler, a
// thread count, and the resulting latency.
type ScalingPoint struct {
	Network  string
	Pipeline string
	Threads  int
	Latency  time.Duration
}

// RunScaling measures strong scaling (Figure 7) for a network over the given
// thread counts, reusing the compiled program and keys across points.
func RunScaling(net *nn.Network, threads []int, opts Options) ([]ScalingPoint, error) {
	opts = opts.normalize()
	rng := rand.New(rand.NewSource(opts.Seed))
	weights := nn.RandomWeights(net, rng)
	prog, err := nn.BuildProgram(net, weights)
	if err != nil {
		return nil, err
	}
	image := nn.RandomImage(net, rng)
	copts := compile.DefaultOptions()
	copts.AllowInsecure = !opts.Secure

	type pipeline struct {
		name  string
		res   *compile.Result
		sched execute.Scheduler
	}
	evaRes, err := compile.Compile(prog, copts)
	if err != nil {
		return nil, err
	}
	chetRes, err := chet.Compile(prog, copts)
	if err != nil {
		return nil, err
	}
	var points []ScalingPoint
	for _, pl := range []pipeline{
		{"EVA", evaRes, execute.SchedulerParallel},
		{"CHET", chetRes, execute.SchedulerBulkSynchronous},
	} {
		prng := ckks.NewTestPRNG(uint64(opts.Seed) + 3000)
		ctx, keys, err := execute.NewContext(pl.res, prng)
		if err != nil {
			return nil, err
		}
		enc, err := execute.EncryptInputs(ctx, pl.res, keys, image, prng)
		if err != nil {
			return nil, err
		}
		for _, th := range threads {
			start := time.Now()
			if _, err := execute.Run(ctx, pl.res, enc, execute.RunOptions{Workers: th, Scheduler: pl.sched}); err != nil {
				return nil, err
			}
			points = append(points, ScalingPoint{Network: net.Name, Pipeline: pl.name, Threads: th, Latency: time.Since(start)})
		}
	}
	return points, nil
}

// --- Table printers ---

func newTable(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

// PrintTable3 prints the network inventory (Table 3) for the instantiated
// configuration next to the paper's layer counts.
func PrintTable3(w io.Writer, cfg nn.Config) {
	tw := newTable(w)
	fmt.Fprintln(w, "Table 3: Deep Neural Networks used in the evaluation")
	fmt.Fprintln(tw, "Network\tConv\tFC\tAct\tPaper FP ops\tPaper accuracy (%)")
	for _, n := range nn.All(cfg) {
		conv, fc, act := n.CountLayers()
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%.2f\n", n.Name, conv, fc, act, n.Paper.FPOperations, n.Paper.UnencryptedAccuracy)
	}
	tw.Flush()
}

// PrintTable4 prints the scale profile and encrypted-vs-reference agreement
// (the offline analogue of Table 4's accuracy columns).
func PrintTable4(w io.Writer, results []*NetworkResult) {
	tw := newTable(w)
	fmt.Fprintln(w, "Table 4: input/output scales and encrypted-inference fidelity")
	fmt.Fprintln(tw, "Network\tCipher\tVector\tScalar\tOutput\tCHET max err\tEVA max err\tCHET agree\tEVA agree\tPaper CHET acc\tPaper EVA acc")
	for _, r := range results {
		s := r.Network.Scales
		fmt.Fprintf(tw, "%s\t%.0f\t%.0f\t%.0f\t%.0f\t%.2e\t%.2e\t%v\t%v\t%.2f\t%.2f\n",
			r.Network.Name, s.Cipher, s.Vector, s.Scalar, s.Output,
			r.CHET.MaxError, r.EVA.MaxError, r.CHET.AgreesRef, r.EVA.AgreesRef,
			r.Network.Paper.CHETAccuracy, r.Network.Paper.EVAAccuracy)
	}
	tw.Flush()
}

// PrintTable5 prints average latencies and the EVA speedup next to the
// paper's numbers.
func PrintTable5(w io.Writer, results []*NetworkResult, workers int) {
	tw := newTable(w)
	fmt.Fprintf(w, "Table 5: average latency on %d threads (measured, this backend) vs paper (56 threads)\n", workers)
	fmt.Fprintln(tw, "Network\tCHET (s)\tEVA (s)\tSpeedup\tPaper CHET (s)\tPaper EVA (s)\tPaper speedup")
	for _, r := range results {
		paperSpeedup := 0.0
		if r.Network.Paper.EVALatency > 0 {
			paperSpeedup = r.Network.Paper.CHETLatency / r.Network.Paper.EVALatency
		}
		fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t%.2fx\t%.1f\t%.1f\t%.1fx\n",
			r.Network.Name, r.CHET.RunTime.Seconds(), r.EVA.RunTime.Seconds(), r.Speedup(),
			r.Network.Paper.CHETLatency, r.Network.Paper.EVALatency, paperSpeedup)
	}
	tw.Flush()
}

// PrintTable6 prints the selected encryption parameters next to the paper's.
func PrintTable6(w io.Writer, results []*NetworkResult) {
	tw := newTable(w)
	fmt.Fprintln(w, "Table 6: encryption parameters selected by CHET and EVA")
	fmt.Fprintln(tw, "Network\tCHET logN\tCHET logQ\tCHET r\tEVA logN\tEVA logQ\tEVA r\tPaper CHET (logN,logQ,r)\tPaper EVA (logN,logQ,r)")
	for _, r := range results {
		p := r.Network.Paper
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t(%d,%d,%d)\t(%d,%d,%d)\n",
			r.Network.Name, r.CHET.LogN, r.CHET.LogQP, r.CHET.Primes, r.EVA.LogN, r.EVA.LogQP, r.EVA.Primes,
			p.CHETLogN, p.CHETLogQ, p.CHETPrimes, p.EVALogN, p.EVALogQ, p.EVAPrimes)
	}
	tw.Flush()
}

// PrintTable7 prints compilation, context, encryption, and decryption times
// for the EVA pipeline next to the paper's numbers.
func PrintTable7(w io.Writer, results []*NetworkResult) {
	tw := newTable(w)
	fmt.Fprintln(w, "Table 7: compilation, encryption context, encryption, and decryption time (EVA)")
	fmt.Fprintln(tw, "Network\tCompile (s)\tContext (s)\tEncrypt (s)\tDecrypt (s)\tPaper (compile/context/enc/dec)")
	for _, r := range results {
		p := r.Network.Paper
		fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t%.3f\t%.3f\t%.2f/%.2f/%.2f/%.2f\n",
			r.Network.Name, r.EVA.CompileTime.Seconds(), r.EVA.ContextTime.Seconds(),
			r.EVA.EncryptTime.Seconds(), r.EVA.DecryptTime.Seconds(),
			p.CompileTime, p.ContextTime, p.EncryptTime, p.DecryptTime)
	}
	tw.Flush()
}

// PrintTable8 prints the application results next to the paper's Table 8.
func PrintTable8(w io.Writer, results []*AppResult) {
	tw := newTable(w)
	fmt.Fprintln(w, "Table 8: arithmetic, statistical ML and image processing applications (1 thread)")
	fmt.Fprintln(tw, "Application\tVector size\tLoC\tTime (s)\tMax err\tPaper vector size\tPaper LoC\tPaper time (s)")
	for _, r := range results {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.3f\t%.2e\t%d\t%d\t%.3f\n",
			r.App.Name, r.VectorSize, r.App.LinesOfCode, r.RunTime.Seconds(), r.MaxError,
			r.App.Paper.VectorSize, r.App.Paper.LinesOfCode, r.App.Paper.TimeSeconds)
	}
	tw.Flush()
}

// PrintFigure7 prints the strong-scaling series of Figure 7.
func PrintFigure7(w io.Writer, points []ScalingPoint) {
	fmt.Fprintln(w, "Figure 7: strong scaling of CHET and EVA (average latency in seconds)")
	byNet := map[string]map[string]map[int]time.Duration{}
	threadSet := map[int]bool{}
	for _, p := range points {
		if byNet[p.Network] == nil {
			byNet[p.Network] = map[string]map[int]time.Duration{}
		}
		if byNet[p.Network][p.Pipeline] == nil {
			byNet[p.Network][p.Pipeline] = map[int]time.Duration{}
		}
		byNet[p.Network][p.Pipeline][p.Threads] = p.Latency
		threadSet[p.Threads] = true
	}
	threads := make([]int, 0, len(threadSet))
	for t := range threadSet {
		threads = append(threads, t)
	}
	sort.Ints(threads)
	tw := newTable(w)
	header := "Network\tPipeline"
	for _, t := range threads {
		header += fmt.Sprintf("\t%d thr", t)
	}
	header += "\tSpeedup(max/1)"
	fmt.Fprintln(tw, header)
	nets := make([]string, 0, len(byNet))
	for n := range byNet {
		nets = append(nets, n)
	}
	sort.Strings(nets)
	for _, n := range nets {
		for _, pl := range []string{"CHET", "EVA"} {
			row := fmt.Sprintf("%s\t%s", n, pl)
			series := byNet[n][pl]
			for _, t := range threads {
				row += fmt.Sprintf("\t%.3f", series[t].Seconds())
			}
			if len(threads) > 1 && series[threads[len(threads)-1]] > 0 {
				row += fmt.Sprintf("\t%.2fx", float64(series[threads[0]])/float64(series[threads[len(threads)-1]]))
			} else {
				row += "\t-"
			}
			fmt.Fprintln(tw, row)
		}
	}
	tw.Flush()
}

// FigureDemoProgram builds the x²y³ running example (Figure 2) so command-line
// tools can show the effect of each transformation pass.
func FigureDemoProgram() *core.Program {
	p := core.MustNewProgram("x2y3", 8)
	x, _ := p.NewInput("x", core.TypeCipher, 8, 60)
	y, _ := p.NewInput("y", core.TypeCipher, 8, 30)
	x2, _ := p.NewBinary(core.OpMultiply, x, x)
	y2, _ := p.NewBinary(core.OpMultiply, y, y)
	y3, _ := p.NewBinary(core.OpMultiply, y2, y)
	out, _ := p.NewBinary(core.OpMultiply, x2, y3)
	_ = p.AddOutput("out", out, 30)
	return p
}

// DescribeProgram renders a program's instructions in topological order,
// one per line, for the command-line tools.
func DescribeProgram(w io.Writer, p *core.Program) {
	types := p.InferTypes()
	for _, t := range p.TopoSort() {
		line := fmt.Sprintf("  t%-4d %-12s", t.ID, t.Op)
		for _, parm := range t.Parms() {
			line += fmt.Sprintf(" t%d", parm.ID)
		}
		switch t.Op {
		case core.OpInput:
			line += fmt.Sprintf("  name=%q type=%s scale=2^%g", t.Name, t.InType, t.LogScale)
		case core.OpConstant:
			line += fmt.Sprintf("  width=%d scale=2^%g", t.VecWidth, t.LogScale)
		case core.OpRotateLeft, core.OpRotateRight:
			line += fmt.Sprintf("  by=%d", t.RotateBy)
		case core.OpRescale:
			line += fmt.Sprintf("  divisor=2^%g", t.LogScale)
		}
		line += fmt.Sprintf("  [%s]", types[t])
		fmt.Fprintln(w, line)
	}
	for _, o := range p.Outputs() {
		fmt.Fprintf(w, "  output %q = t%d (desired scale 2^%g)\n", o.Name, o.Term.ID, o.LogScale)
	}
}
