package serve

import (
	"context"
	"encoding/base64"
	"errors"
	"fmt"

	"eva/internal/ckks"
	"eva/internal/compile"
	"eva/internal/execute"
	"eva/internal/handle"
)

// InputBinding is one wire-level input binding, shared by every execution
// entry point: /execute and /jobs batches (via ExecuteBatch.binding),
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

// binding folds one input's wire fields into the shared InputBinding view, so
// the batch entry points resolve inputs through the same code path as
// pipeline stages.
func (b *ExecuteBatch) binding(name string) InputBinding {
	return InputBinding{
		Cipher: b.Cipher[name],
		Handle: b.Handles[name],
		Plain:  b.Plain[name],
		Values: b.Values[name],
	}
}

// bindingResolver resolves InputBindings against one (context, program) pair.
// It owns the per-program chaining requirements (input level floors, the
// parameter fingerprint), computed lazily on the first handle or stage edge,
// and shares one handleCache across everything resolved for a request.
//
// The resolver returns errors without an entry-point prefix — callers add
// their own ("input %q:" on the batch paths, "stage %d: input %q:" on
// pipelines) — except chaining violations, which come back as *compatError so
// handlers can map them to structured 422s.
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
// precedence over Values. ok reports whether the binding carried either; the
// caller renders its own missing-value error when it did not.
func (r *bindingResolver) plain(name string, b InputBinding) (full []float64, ok bool, err error) {
	v := b.Plain
	if v == nil {
		v = b.Values
	}
	if v == nil {
		return nil, false, nil
	}
	full, err = execute.PreparePlain(r.res, name, v)
	return full, true, err
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
// checks it against the consuming input's chaining requirements. Chaining
// violations come back as *compatError; a resolution failure wraps
// handle.ErrNotFound for status mapping.
func (r *bindingResolver) cipherFromHandle(stdctx context.Context, name, id string, logScale float64) (*resolvedHandle, error) {
	rh, err := r.s.resolveHandle(stdctx, id, r.cache)
	if err != nil {
		return nil, err
	}
	if err := rh.meta.Check(r.want(name, logScale)); err != nil {
		var m *handle.Mismatch
		if errors.As(err, &m) {
			return nil, &compatError{input: name, mismatch: m}
		}
		return nil, err
	}
	if err := rh.ct.Validate(r.ce.Ctx.Params); err != nil {
		return nil, fmt.Errorf("handle %s: %w", id, err)
	}
	return rh, nil
}
