package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"eva/internal/ckks"
	"eva/internal/compile"
	"eva/internal/core"
	"eva/internal/execute"
	"eva/internal/nn"
)

// cnnErrBound bounds the largest absolute class-score error of an encrypted
// inference against the reference executor on the source program.
const cnnErrBound = 1e-2

// cnnInfer runs encrypted SqueezeNet-CIFAR inference in-process.
type cnnInfer struct {
	e    *env
	net  *nn.Network
	prog *core.Program
	res  *compile.Result
	ctx  *execute.Context
	keys *execute.KeyMaterial
	// Per-client state: image generator, encryptor and decryptor.
	rngs []*rand.Rand
	encs []*ckks.Encryptor
	decs []*ckks.Decryptor
}

func setupCNN(e *env, sc spanRef) (instance, error) {
	w := &cnnInfer{e: e, net: nn.SqueezeNetCIFAR(nn.BenchConfig())}
	rng := rand.New(rand.NewSource(e.seed))
	s := sc.child("bench.build")
	prog, err := nn.BuildProgram(w.net, nn.RandomWeights(w.net, rng))
	s.end()
	if err != nil {
		return nil, err
	}
	w.prog = prog

	// evabench's default: the scaled-down, insecure parameter set.
	opts := compile.DefaultOptions()
	opts.AllowInsecure = true
	if w.res, err = compileChecked(e, sc, prog, opts); err != nil {
		return nil, err
	}

	s = sc.child("ckks.keygen")
	w.ctx, w.keys, err = execute.NewContext(w.res, ckks.NewTestPRNG(uint64(e.seed)*4+1))
	s.end()
	if err != nil {
		return nil, err
	}
	if e.counts != nil {
		s := sc.child("bench.key_size")
		_, n, err := encodeEvalKeys(w.keys.Relin, w.keys.Rot)
		s.end()
		if err != nil {
			return nil, err
		}
		e.counts.add("ckks.eval_keys_mb", float64(n)/(1<<20))
	}
	for c := 0; c < e.clients; c++ {
		w.rngs = append(w.rngs, rand.New(rand.NewSource(e.seed*1000+int64(c)+1)))
		w.encs = append(w.encs, ckks.NewEncryptor(w.ctx.Params, w.keys.Public, ckks.NewTestPRNG(uint64(e.seed)*4+2+uint64(c)<<32)))
		w.decs = append(w.decs, ckks.NewDecryptor(w.ctx.Params, w.keys.Secret))
	}
	return w, nil
}

// compileChecked compiles prog with compile.Compile. In the traced run it
// first runs the passes one by one and requires the same counts.
func compileChecked(e *env, sc spanRef, prog *core.Program, opts compile.Options) (*compile.Result, error) {
	var passes counts
	if e.trace != nil {
		var err error
		if passes, err = compilePasses(sc, prog, opts); err != nil {
			return nil, err
		}
	}
	s := sc.child("compile.compile")
	res, err := compile.Compile(prog, opts)
	s.end()
	if err != nil {
		return nil, err
	}
	if e.trace != nil {
		if got := countsOf(res); got != passes {
			return nil, fmt.Errorf("traced pass sequence gave %+v, compile.Compile %+v", passes, got)
		}
		countsOf(res).record(e.counts)
	}
	return res, nil
}

func (w *cnnInfer) request(c int, sc spanRef) (time.Duration, float64, error) {
	s := sc.child("bench.input")
	image := nn.RandomImage(w.net, w.rngs[c])
	s.end()

	start := time.Now()
	in := &execute.EncryptedInputs{Cipher: map[string]*ckks.Ciphertext{}, Plain: map[string][]float64{}}
	// The client-side calls execute.EncryptInputs makes, one span each.
	for _, t := range w.res.Program.Inputs() {
		v := image[t.Name]
		if t.InType != core.TypeCipher {
			full, err := execute.PreparePlain(w.res, t.Name, v)
			if err != nil {
				return 0, 0, err
			}
			in.Plain[t.Name] = full
			continue
		}
		s := sc.child("ckks.encode")
		pt, err := w.ctx.Encoder.Encode(v, math.Exp2(t.LogScale), w.ctx.Params.MaxLevel())
		s.end()
		if err != nil {
			return 0, 0, err
		}
		s = sc.child("ckks.encrypt")
		ct, err := w.encs[c].Encrypt(pt)
		s.end()
		if err != nil {
			return 0, 0, err
		}
		in.Cipher[t.Name] = ct
	}

	ropts := execute.RunOptions{Workers: runtime.NumCPU(), Scheduler: execute.SchedulerParallel}
	var ops map[string]float64
	if w.e.counts != nil {
		ops = map[string]float64{}
		ropts.OnInstruction = func(t *core.Term, rec execute.InstrRecord) {
			op := strings.ToLower(t.Op.String())
			ops[op+".ms"] += ms(rec.Wall)
			ops[op+".count"]++
			ops["instr_ns"] += float64(rec.Wall)
		}
	}
	s = sc.child("execute.run")
	out, err := execute.Run(w.ctx, w.res, in, ropts)
	s.end()
	if err != nil {
		return time.Since(start), 0, err
	}

	scores := out.Plain["scores"]
	if ct := out.Cipher["scores"]; ct != nil {
		s = sc.child("ckks.decrypt")
		pt := w.decs[c].Decrypt(ct)
		s.end()
		s = sc.child("ckks.decode")
		scores = w.ctx.Encoder.Decode(pt)
		s.end()
	}
	lat := time.Since(start)

	if k := w.e.counts; k != nil {
		for _, op := range opcodes {
			k.add("op."+op+".ms", ops[op+".ms"])
			k.add("op."+op+".count", ops[op+".count"])
		}
		k.add("execute.instr_ns", ops["instr_ns"])
		k.add("execute.capacity_ns", float64(out.Stats.WallTime)*float64(out.Stats.Workers))
		k.add("execute.hoisted_batches", float64(out.Stats.HoistedBatches))
		k.add("execute.hoisted_rotations", float64(out.Stats.HoistedRotations))
		k.add("execute.peak_live_mb", float64(out.Stats.PeakLiveBytes)/(1<<20))
	}

	s = sc.child("bench.check")
	defer s.end()
	ref, err := execute.RunReference(w.prog, image)
	if err != nil {
		return lat, 0, err
	}
	maxErr, err := checkScores(scores, ref["scores"], w.net.NumClasses)
	return lat, maxErr, err
}

// checkScores compares class scores with the reference: the error must stay
// within cnnErrBound, and the predicted class must agree whenever the
// reference's top two scores are more than twice the bound apart (closer
// than that, the bound itself allows either order).
func checkScores(got, want []float64, classes int) (float64, error) {
	if len(got) < classes || len(want) < classes {
		return math.Inf(1), fmt.Errorf("got %d scores, want %d", len(got), classes)
	}
	maxErr := maxAbsErr(got[:classes], want[:classes])
	if !(maxErr <= cnnErrBound) {
		return maxErr, fmt.Errorf("score error %g exceeds bound %g", maxErr, cnnErrBound)
	}
	best, second := math.Inf(-1), math.Inf(-1)
	for _, v := range want[:classes] {
		if v > best {
			best, second = v, best
		} else if v > second {
			second = v
		}
	}
	if best-second > 2*cnnErrBound && nn.Argmax(got, classes) != nn.Argmax(want, classes) {
		return maxErr, fmt.Errorf("predicted class %d, reference %d", nn.Argmax(got, classes), nn.Argmax(want, classes))
	}
	return maxErr, nil
}

func (w *cnnInfer) finish() (float64, error) { return 0, nil }
func (w *cnnInfer) close()                   {}
