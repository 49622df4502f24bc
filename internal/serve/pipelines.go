package serve

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"eva/internal/execute"
)

// POST /pipelines executes a validated DAG of compiled program stages
// server-side: each stage runs against its own program and context, its
// encrypted outputs chain straight into later stages' inputs in memory (and
// are persisted as content-addressed handles), so a multi-stage encrypted
// workload never round-trips ciphertext through the client. The checker
// verifies every stage edge — level budget, scale, slot width, parameter
// fingerprint — at submit time and rejects incompatible chaining with a
// structured 422 before anything runs. The whole pipeline is one job through
// internal/jobs (admission control, SSE progress per stage, cancel, result
// fetch-once) whose stages run by runStages, each under one execute span.

// PipelineInput is one input binding of a pipeline stage — the shared
// InputBinding shape used by every execution entry point; see InputBinding
// for the exactly-one-source rules.
type PipelineInput = InputBinding

// PipelineStage is one stage of a pipeline: a compiled program, the context
// to execute it under, its input bindings, and the output form — "handle"
// (the default: encrypted outputs are persisted and their ids returned) or,
// on the final stage of a demo-context pipeline only, "values" (decrypted).
type PipelineStage struct {
	ProgramID string                   `json:"program_id"`
	ContextID string                   `json:"context_id"`
	Inputs    map[string]PipelineInput `json:"inputs"`
	Output    string                   `json:"output,omitempty"`
}

// PipelineRequest is the body of POST /pipelines.
type PipelineRequest struct {
	Stages    []PipelineStage `json:"stages"`
	Workers   int             `json:"workers,omitempty"`
	Scheduler string          `json:"scheduler,omitempty"`
}

// maxPipelineStages bounds a pipeline's length; each stage is a full
// program execution, so the cap mirrors maxBatchesPerRequest in spirit.
const maxPipelineStages = 64

func (s *Server) handlePipelineSubmit(w http.ResponseWriter, r *http.Request) {
	var req PipelineRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	stages, ropts, err := s.resolvePipeline(r.Context(), &req)
	if err != nil {
		s.writeInputError(w, err)
		return
	}
	snap, err := s.enqueue(r.Context(), len(stages), estimateAdmissionBytes(stages), func(jctx context.Context, batchDone func(int)) (any, error) {
		return s.runStages(jctx, stages, ropts, true, batchDone)
	})
	s.writeSubmitted(w, r, snap, err)
}

// resolvePipeline validates the whole DAG before anything runs. Structural
// errors fail at once; chaining incompatibilities are collected across every
// edge of every stage (not first-failure), so the 422 body names every bad
// edge at once.
func (s *Server) resolvePipeline(stdctx context.Context, req *PipelineRequest) ([]*stage, execute.RunOptions, error) {
	if len(req.Stages) == 0 {
		return nil, execute.RunOptions{}, errors.New("no stages")
	}
	if len(req.Stages) > maxPipelineStages {
		return nil, execute.RunOptions{}, errStatus(http.StatusRequestEntityTooLarge, "%d stages exceeds the pipeline limit of %d", len(req.Stages), maxPipelineStages)
	}
	ropts, err := s.runOptions(req.Workers, req.Scheduler)
	if err != nil {
		return nil, ropts, err
	}
	cache := newHandleCache()
	stages := make([]*stage, len(req.Stages))
	var incompats []Incompat
	for i := range req.Stages {
		ps := &req.Stages[i]
		ce, entry, err := s.resolveExecution(ps.ProgramID, ps.ContextID)
		if err != nil {
			return nil, ropts, fmt.Errorf("stage %d: %w", i, err)
		}
		output := cmp.Or(ps.Output, outputHandle)
		switch {
		case output != outputHandle && output != outputValues:
			return nil, ropts, fmt.Errorf("stage %d: unknown output mode %q", i, ps.Output)
		case output == outputValues && i != len(req.Stages)-1:
			return nil, ropts, fmt.Errorf("stage %d: only the final stage may decrypt with \"output\": \"values\"", i)
		case output == outputValues && ce.Keys == nil:
			return nil, ropts, fmt.Errorf("stage %d: \"output\": \"values\" needs a server-keygen (demo) context", i)
		}
		st, err := s.resolveStage(stdctx, ce, entry, ps.Inputs, output, stages[:i], cache)
		var cerr *compatError
		if errors.As(err, &cerr) {
			for _, inc := range cerr.incompats {
				inc.Stage = i
				incompats = append(incompats, inc)
			}
		} else if err != nil {
			return nil, ropts, fmt.Errorf("stage %d: %w", i, err)
		}
		stages[i] = st
	}
	if len(incompats) > 0 {
		return nil, ropts, fmt.Errorf("incompatible pipeline chaining: %d edge(s) rejected: %w", len(incompats), &compatError{incompats: incompats})
	}
	return stages, ropts, nil
}
