package serve

import (
	"context"
	"encoding/base64"
	"fmt"

	"eva/internal/ckks"
	"eva/internal/compile"
	"eva/internal/core"
	"eva/internal/execute"
	"eva/internal/handle"
)

// InputBinding is one wire-level input binding, shared by every execution
// entry point: /execute and /jobs batches (via ExecuteBatch.bindings),
// coalesced submissions that fall back to the uncoalesced path, and pipeline
// stages (where PipelineInput is an alias of this type). Exactly one source
// must be set for a Cipher program input: Handle (a stored handle id), Stage
// (pipelines only: a 0-based index of an earlier stage, whose output named
// Output — defaulting to the producer's single encrypted output — feeds this
// input), Cipher (an inline base64 ciphertext), or Values (demo-mode
// plaintext, encrypted server-side). Plain program inputs take Plain (or
// Values).
type InputBinding struct {
	Handle string    `json:"handle,omitempty"`
	Stage  *int      `json:"stage,omitempty"`
	Output string    `json:"output,omitempty"`
	Cipher string    `json:"cipher,omitempty"`
	Values []float64 `json:"values,omitempty"`
	Plain  []float64 `json:"plain,omitempty"`
}

// bindings folds a batch's per-source maps into the InputBinding view, so a
// batch resolves exactly like a one-stage pipeline with no earlier stages.
// An input named in none of the maps has no binding.
func (b *ExecuteBatch) bindings() map[string]InputBinding {
	m := map[string]InputBinding{}
	for name := range b.Cipher {
		m[name] = InputBinding{}
	}
	for name := range b.Handles {
		m[name] = InputBinding{}
	}
	for name := range b.Plain {
		m[name] = InputBinding{}
	}
	for name := range b.Values {
		m[name] = InputBinding{}
	}
	for name := range m {
		m[name] = InputBinding{
			Cipher: b.Cipher[name],
			Handle: b.Handles[name],
			Plain:  b.Plain[name],
			Values: b.Values[name],
		}
	}
	return m
}

// bindingResolver resolves InputBindings against one (context, program) pair
// for resolveStage. It owns the per-program chaining requirements (input
// level floors, the parameter fingerprint), computed lazily on the first
// handle or stage edge, and shares one handleCache across everything
// resolved for a request.
type bindingResolver struct {
	s        *Server
	ce       *contextEntry
	res      *compile.Result
	cache    handleCache
	required map[string]int
	fpr      string
}

func (s *Server) newBindingResolver(ce *contextEntry, res *compile.Result, cache handleCache) *bindingResolver {
	return &bindingResolver{s: s, ce: ce, res: res, cache: cache}
}

// want is the chaining requirement a stored handle (or upstream pipeline
// stage output) must satisfy to feed the named Cipher input.
func (r *bindingResolver) want(name string, logScale float64) handle.Want {
	if r.required == nil {
		r.required = requiredInputLevels(r.res)
		r.fpr = paramsFingerprint(r.ce.Ctx.Params)
	}
	return handle.Want{
		MinLevel: r.required[name],
		LogScale: logScale,
		Width:    r.res.Program.VecSize,
		ParamsID: r.fpr,
	}
}

// plain resolves a Plain program input from its binding: Plain takes
// precedence over Values.
func (r *bindingResolver) plain(name string, b InputBinding) ([]float64, error) {
	v := b.Plain
	if v == nil {
		v = b.Values
	}
	if v == nil {
		return nil, fmt.Errorf("plain input %q needs \"plain\" values", name)
	}
	return execute.PreparePlain(r.res, name, v)
}

// bindCipher binds one Cipher input of st from its single source. A chaining
// violation comes back as the bare *handle.Mismatch; errors carry no input
// prefix, which resolveStage adds.
func (r *bindingResolver) bindCipher(stdctx context.Context, st *stage, in *core.Term, b InputBinding, earlier []*stage) error {
	sources := 0
	for _, set := range []bool{b.Handle != "", b.Stage != nil, b.Cipher != "", b.Values != nil} {
		if set {
			sources++
		}
	}
	if sources != 1 {
		return fmt.Errorf("needs exactly one of \"handle\", \"stage\", \"cipher\", or \"values\"")
	}
	switch {
	case b.Values != nil:
		if n, width := len(b.Values), r.res.Program.VecSize; n == 0 || n > width {
			return fmt.Errorf("has %d values; want 1..%d", n, width)
		}
		if r.ce.Keys == nil {
			return fmt.Errorf("plaintext \"values\" need a server-keygen (demo) context; this context has no keys")
		}
		st.values[in.Name] = b.Values
	case b.Cipher != "":
		ct, err := r.cipherFromWire(b.Cipher)
		if err != nil {
			return err
		}
		st.in.Cipher[in.Name] = ct
		st.entryLevel = min(st.entryLevel, ct.Level)
	case b.Handle != "":
		rh, err := r.cipherFromHandle(stdctx, in.Name, b.Handle, in.LogScale)
		if err != nil {
			return err
		}
		st.in.Cipher[in.Name] = rh.ct
		st.entryLevel = min(st.entryLevel, rh.meta.Level)
	default:
		j := *b.Stage
		if j < 0 || j >= len(earlier) {
			return fmt.Errorf("references stage %d; stages may only consume earlier stages", j)
		}
		out := b.Output
		if out == "" {
			var err error
			if out, err = defaultCipherOutput(earlier[j].entry); err != nil {
				return err
			}
		}
		meta, err := producerMeta(earlier[j], out)
		if err != nil {
			return err
		}
		meta.ID = fmt.Sprintf("stage[%d].%s", j, out)
		if err := meta.Check(r.want(in.Name, in.LogScale)); err != nil {
			return err
		}
		st.refs[in.Name] = stageRef{stage: j, output: out}
		st.entryLevel = min(st.entryLevel, meta.Level)
	}
	return nil
}

// cipherFromWire decodes an inline base64 ciphertext and validates it against
// the context's parameters. Malformed uploads are rejected before the
// executor touches them: the ring layer assumes well-shaped NTT operands.
func (r *bindingResolver) cipherFromWire(b64 string) (*ckks.Ciphertext, error) {
	data, err := base64.StdEncoding.DecodeString(b64)
	if err != nil {
		return nil, err
	}
	ct := &ckks.Ciphertext{}
	if err := ct.UnmarshalBinary(data); err != nil {
		return nil, err
	}
	if err := ct.Validate(r.ce.Ctx.Params); err != nil {
		return nil, err
	}
	return ct, nil
}

// cipherFromHandle resolves a handle reference (locally or from a peer) and
// checks it against the consuming input's chaining requirements before its
// ciphertext is validated. A resolution failure wraps handle.ErrNotFound for
// status mapping.
func (r *bindingResolver) cipherFromHandle(stdctx context.Context, name, id string, logScale float64) (*resolvedHandle, error) {
	rh, err := r.s.resolveHandle(stdctx, id, r.cache)
	if err != nil {
		return nil, err
	}
	if err := rh.meta.Check(r.want(name, logScale)); err != nil {
		return nil, err
	}
	if err := rh.ct.Validate(r.ce.Ctx.Params); err != nil {
		return nil, fmt.Errorf("handle %s: %w", id, err)
	}
	return rh, nil
}
