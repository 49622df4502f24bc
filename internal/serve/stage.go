package serve

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"net/http"
	"strings"

	"eva/internal/analysis"
	"eva/internal/ckks"
	"eva/internal/compile"
	"eva/internal/core"
	"eva/internal/execute"
	"eva/internal/handle"
)

// A stage is the one unit of execution behind every route. /execute, /jobs
// and the unpackable coalesce=1 fallback run each batch as an independent
// one-stage pipeline, a sealed coalesced batch is one stage, and /pipelines
// chains stages. Every stage is resolved at admission by resolveStage,
// priced by estimateAdmissionBytes and run by runStages inside one job.

// stageRef is a resolved stage-to-stage edge: which earlier stage's output
// feeds an input.
type stageRef struct {
	stage  int
	output string
}

// stage is one program execution resolved at admission.
type stage struct {
	entry *Entry
	ce    *contextEntry
	// in holds the inputs resolved at submit: decoded ciphertexts, resolved
	// handles and replicated plain vectors.
	in *execute.EncryptedInputs
	// values are demo-mode plaintexts for Cipher inputs; the job encrypts
	// them when the stage runs.
	values map[string][]float64
	// refs maps an input to the earlier stage output that feeds it.
	refs map[string]stageRef
	// output is the result form: "" (payloads), "handle" or "values".
	output string
	// entryLevel is the level the stage's cipher inputs enter at: fresh
	// encryptions start at MaxLevel, chained inputs lower it. The stage's
	// own outputs sit len(chain) rescales below it.
	entryLevel int
	// err is why a batch did not resolve; only a batch route keeps such a
	// stage, and /execute reports err as that batch's result.
	err error
}

// httpError is a rejection that carries its own HTTP status.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func errStatus(status int, format string, args ...any) error {
	return &httpError{status: status, msg: fmt.Sprintf(format, args...)}
}

// Incompat is one structured chaining rejection in a 422 body: which stage
// and input is incompatible with its supplied handle (or upstream stage
// output), on which property, with both sides rendered.
type Incompat struct {
	Stage    int    `json:"stage,omitempty"`
	Input    string `json:"input"`
	HandleID string `json:"handle,omitempty"`
	Field    string `json:"field"`
	Want     string `json:"want"`
	Got      string `json:"got"`
}

// compatError collects every chaining incompatibility found while
// resolving a request, so handlers answer with one structured 422 and
// /execute renders it as a batch's error text.
type compatError struct {
	incompats []Incompat
}

func (e *compatError) Error() string {
	msgs := make([]string, len(e.incompats))
	for i, inc := range e.incompats {
		msgs[i] = fmt.Sprintf("input %q: handle %s: incompatible %s: want %s, got %s", inc.Input, inc.HandleID, inc.Field, inc.Want, inc.Got)
	}
	return strings.Join(msgs, "; ")
}

// inputErrorStatus maps a resolution failure to its status: chaining
// incompatibilities are 422s, errors that carry a status keep it, unknown
// handles are 404s, and everything else a plain 400.
func inputErrorStatus(err error) int {
	var ce *compatError
	var he *httpError
	switch {
	case errors.As(err, &ce):
		return http.StatusUnprocessableEntity
	case errors.As(err, &he):
		return he.status
	case errors.Is(err, handle.ErrNotFound):
		return http.StatusNotFound
	}
	return http.StatusBadRequest
}

func (s *Server) writeInputError(w http.ResponseWriter, err error) {
	body := apiError{Error: err.Error()}
	var ce *compatError
	if errors.As(err, &ce) {
		body.Incompatibilities = ce.incompats
	}
	writeJSON(w, inputErrorStatus(err), body)
}

// resolveStage resolves one stage's input bindings against its program at
// admission: inline ciphertexts are decoded and validated, handles resolved
// (locally or from a peer, through the request's shared cache), references
// to earlier stages checked against the producer's statically known output,
// plain inputs replicated, and demo values checked and left for the job to
// encrypt. Each Cipher input takes exactly one source. A structural problem
// returns at once. Chaining incompatibilities — a handle or earlier output
// whose parameters, width, level or scale do not fit the input — are
// collected across every input and returned together as a *compatError next
// to the otherwise resolved stage, so a pipeline goes on to check the edges
// of later stages too. Batches have no earlier stages.
func (s *Server) resolveStage(stdctx context.Context, ce *contextEntry, entry *Entry, bindings map[string]InputBinding, output string, earlier []*stage, cache handleCache) (*stage, error) {
	res := entry.Result
	st := &stage{
		entry:      entry,
		ce:         ce,
		in:         &execute.EncryptedInputs{Cipher: map[string]*ckks.Ciphertext{}, Plain: map[string][]float64{}},
		values:     map[string][]float64{},
		refs:       map[string]stageRef{},
		output:     output,
		entryLevel: ce.Ctx.Params.MaxLevel(),
	}
	br := s.newBindingResolver(ce, res, cache)
	var incompats []Incompat
	for _, in := range res.Program.Inputs() {
		b, ok := bindings[in.Name]
		if !ok {
			return nil, fmt.Errorf("missing binding for input %q", in.Name)
		}
		if in.InType != core.TypeCipher {
			full, err := br.plain(in.Name, b)
			if err != nil {
				return nil, err
			}
			st.in.Plain[in.Name] = full
			continue
		}
		err := br.bindCipher(stdctx, st, in, b, earlier)
		var m *handle.Mismatch
		if errors.As(err, &m) {
			incompats = append(incompats, Incompat{Input: in.Name, HandleID: m.HandleID, Field: m.Field, Want: m.Want, Got: m.Got})
		} else if err != nil {
			return nil, fmt.Errorf("input %q: %w", in.Name, err)
		}
	}
	if len(incompats) > 0 {
		return st, &compatError{incompats: incompats}
	}
	return st, nil
}

// producerMeta is the statically known metadata of a stage's encrypted
// output, playing the role of a handle's Meta for edges that exist only
// inside a pipeline: the stage's entry level minus the compiled chain length
// fixes the output level, the compiled scale its log2 scale.
func producerMeta(st *stage, outName string) (handle.Meta, error) {
	res := st.entry.Result
	for _, out := range res.Program.Outputs() {
		if out.Name != outName {
			continue
		}
		if res.Types[out.Term] != core.TypeCipher {
			return handle.Meta{}, fmt.Errorf("output %q of program %s is not encrypted", outName, st.entry.ID)
		}
		return handle.Meta{
			ContextID: st.ce.ID,
			ParamsID:  paramsFingerprint(st.ce.Ctx.Params),
			Level:     st.entryLevel - len(res.Chains[out.Term]),
			LogScale:  res.Scales[out.Term],
			Width:     res.Program.VecSize,
		}, nil
	}
	return handle.Meta{}, fmt.Errorf("program %s has no output %q", st.entry.ID, outName)
}

// defaultCipherOutput returns the producer's single encrypted output name,
// erroring when the choice is ambiguous.
func defaultCipherOutput(entry *Entry) (string, error) {
	res := entry.Result
	var name string
	for _, out := range res.Program.Outputs() {
		if res.Types[out.Term] != core.TypeCipher {
			continue
		}
		if name != "" {
			return "", fmt.Errorf("program %s has several encrypted outputs; name one with \"output\"", entry.ID)
		}
		name = out.Name
	}
	if name == "" {
		return "", fmt.Errorf("program %s has no encrypted output to chain", entry.ID)
	}
	return name, nil
}

// estimateAdmissionBytes is the admission estimate of every route: the
// resident footprint of one job. Each distinct input ciphertext the job pins
// while queued counts once, by pointer — a resolved handle shared by many
// stages is one allocation. Plain vectors count by their size, every pending
// demo value by a fresh-ciphertext placeholder, and the intermediates by the
// cost model's largest static peak across stages: stages run one after
// another inside the job, so their peaks never stack. A batch that did not
// resolve pins nothing.
func estimateAdmissionBytes(stages []*stage) int64 {
	var est, peak int64
	seen := map[*ckks.Ciphertext]bool{}
	peaks := map[*compile.Result]bool{}
	for _, st := range stages {
		if st.err != nil {
			continue
		}
		for _, ct := range st.in.Cipher {
			if !seen[ct] {
				seen[ct] = true
				est += int64(ct.MemoryBytes())
			}
		}
		for _, pv := range st.in.Plain {
			est += int64(8 * len(pv))
		}
		res := st.entry.Result
		freshCt := 2 * int64(len(res.Plan.BitSizes)) * (int64(1) << uint(res.LogN)) * 8
		est += int64(len(st.values)) * freshCt
		if !peaks[res] {
			peaks[res] = true
			model := analysis.CostModel{LogN: res.LogN, TotalLevels: len(res.Plan.BitSizes)}
			peak = max(peak, model.EstimatePeakMemoryBytes(res.Program))
		}
	}
	return est + peak
}

// firstStageError is the fail-fast policy of /jobs and the coalesce=1
// fallback: the first batch that did not resolve rejects the submission.
func firstStageError(stages []*stage) error {
	for i, st := range stages {
		if st.err != nil {
			return fmt.Errorf("batch %d: %w", i, st.err)
		}
	}
	return nil
}

// completeInputs returns a stage's full executor inputs inside its job: the
// inputs resolved at admission, the ciphertexts earlier stages produced for
// its stage references, and its demo values, encrypted now. st.in itself is
// left untouched.
func completeInputs(st *stage, upstream []*execute.Outputs) (*execute.EncryptedInputs, error) {
	if len(st.refs) == 0 && len(st.values) == 0 {
		return st.in, nil
	}
	enc := &execute.EncryptedInputs{Cipher: maps.Clone(st.in.Cipher), Plain: st.in.Plain, EncryptTime: st.in.EncryptTime}
	for name, ref := range st.refs {
		ct := upstream[ref.stage].Cipher[ref.output]
		if ct == nil {
			return nil, fmt.Errorf("stage %d produced no output %q for input %q", ref.stage, ref.output, name)
		}
		enc.Cipher[name] = ct
	}
	if len(st.values) > 0 {
		cts, d, err := execute.EncryptSelected(st.ce.Ctx, st.entry.Result, st.ce.Keys, st.values, nil)
		if err != nil {
			return nil, fmt.Errorf("encrypting values: %v", err)
		}
		maps.Copy(enc.Cipher, cts)
		enc.EncryptTime += d
	}
	return enc, nil
}

// runStages runs a job's stages in order, each under one execute span. In a
// pipeline (chained) the raw in-memory outputs of every stage feed the
// stage references of later ones, with no serialize/store round-trip, and a
// failing stage fails the whole job. Independent batches instead each report
// their own failure — a batch that did not resolve at admission included —
// as that batch's error. A stage's pinned inputs are released once it ran.
func (s *Server) runStages(jctx context.Context, stages []*stage, ropts execute.RunOptions, chained bool, batchDone func(int)) ([]BatchResult, error) {
	results := make([]BatchResult, len(stages))
	upstream := make([]*execute.Outputs, len(stages))
	for i, st := range stages {
		if err := jctx.Err(); err != nil {
			return nil, err
		}
		if st.err != nil {
			s.metrics.RecordExecutionError()
			results[i] = batchError("%v", st.err)
		} else {
			var out *execute.Outputs
			results[i], out = s.runBatch(jctx, i, st, upstream, ropts)
			st.in, st.values = nil, nil
			if chained {
				if results[i].Error != "" {
					return nil, fmt.Errorf("stage %d: %s", i, results[i].Error)
				}
				upstream[i] = out
			}
		}
		batchDone(i)
	}
	return results, nil
}
