package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"time"

	"eva/internal/execute"
	"eva/internal/jobs"
	"eva/internal/obs"
)

// The jobs API fronts long-running encrypted computations with a queue:
// POST /jobs enqueues an execute request and returns a job id immediately, a
// bounded worker pool drains the FIFO queue, GET /jobs/{id} polls status,
// GET /jobs/{id}/events streams progress over SSE, GET /jobs/{id}/result
// returns the results exactly once, and DELETE /jobs/{id} cancels. Admission
// control sheds load with 429 + Retry-After when the queue is full or the
// estimated resident ciphertext footprint of all admitted jobs would exceed
// the configured budget.
//
// Every execution entry point runs as one such job: /jobs, /pipelines and
// each sealed coalesced batch through enqueue, and the synchronous /execute
// and the unpackable coalesce=1 fallback through executeAndWait, which
// enqueues and then waits for the job. So the budget bounds all of them
// alike. Each job runs its resolved stages through runStages (stage.go).

// JobRequest is the body of POST /jobs — the asynchronous counterpart of
// ExecuteRequest, plus the program id (which /execute carries in the path).
// Output "handle" persists encrypted outputs as content-addressed handles
// and returns their ids in the job result instead of ciphertext payloads.
type JobRequest struct {
	ProgramID string         `json:"program_id"`
	ContextID string         `json:"context_id"`
	Workers   int            `json:"workers,omitempty"`
	Scheduler string         `json:"scheduler,omitempty"`
	Output    string         `json:"output,omitempty"`
	Batches   []ExecuteBatch `json:"batches"`
}

// JobStatus is the wire form of a job's state (POST /jobs and GET /jobs/{id}).
type JobStatus struct {
	JobID       string  `json:"job_id"`
	Status      string  `json:"status"`
	Batches     int     `json:"batches"`
	BatchesDone int     `json:"batches_done"`
	EstBytes    int64   `json:"est_bytes"`
	Error       string  `json:"error,omitempty"`
	CreatedAt   string  `json:"created_at"`
	WaitMillis  float64 `json:"wait_ms,omitempty"`
	RunMillis   float64 `json:"run_ms,omitempty"`
	// TraceID is the request trace the job is bound to; GET
	// /jobs/{id}/trace serves its span tree.
	TraceID string `json:"trace_id,omitempty"`
}

// JobResult is the body of GET /jobs/{id}/result: the same per-batch results
// /execute returns synchronously. The result is delivered exactly once; a
// second fetch (or a fetch after the TTL) gets 410 Gone.
type JobResult struct {
	JobID   string        `json:"job_id"`
	Status  string        `json:"status"`
	Results []BatchResult `json:"results"`
}

func jobStatusJSON(s jobs.Snapshot) JobStatus {
	js := JobStatus{
		JobID:       s.ID,
		Status:      string(s.Status),
		Batches:     s.Batches,
		BatchesDone: s.BatchesDone,
		EstBytes:    s.EstBytes,
		Error:       s.Error,
		CreatedAt:   s.Created.UTC().Format(time.RFC3339Nano),
	}
	if !s.Started.IsZero() {
		js.WaitMillis = float64(s.Started.Sub(s.Created)) / float64(time.Millisecond)
		end := s.Finished
		if end.IsZero() {
			end = time.Now()
		}
		js.RunMillis = float64(end.Sub(s.Started)) / float64(time.Millisecond)
	}
	return js
}

// resolveBatches resolves a batch request — /execute, /jobs, or a coalesce=1
// submission that cannot be packed — at admission. Every batch becomes an
// independent one-stage pipeline, resolved through ExecuteBatch.bindings
// with no earlier stages and one handle cache for the whole request, so a
// handle referenced by many batches is resolved, and charged, once. A
// request-level problem is returned as the error; a batch that does not
// resolve becomes a stage carrying only its error, which /jobs and the
// fallback reject (firstStageError) and /execute reports as that batch's
// result.
func (s *Server) resolveBatches(stdctx context.Context, req *JobRequest) ([]*stage, execute.RunOptions, error) {
	ce, entry, err := s.resolveExecution(req.ProgramID, req.ContextID)
	if err != nil {
		return nil, execute.RunOptions{}, err
	}
	if len(req.Batches) == 0 {
		return nil, execute.RunOptions{}, errors.New("no batches")
	}
	if len(req.Batches) > maxBatchesPerRequest {
		return nil, execute.RunOptions{}, errStatus(http.StatusRequestEntityTooLarge, "%d batches exceeds the per-request limit of %d", len(req.Batches), maxBatchesPerRequest)
	}
	ropts, err := s.runOptions(req.Workers, req.Scheduler)
	if err != nil {
		return nil, ropts, err
	}
	if err := validOutputMode(req.Output); err != nil {
		return nil, ropts, err
	}
	cache := newHandleCache()
	stages := make([]*stage, len(req.Batches))
	for i := range req.Batches {
		st, err := s.resolveStage(stdctx, ce, entry, req.Batches[i].bindings(), req.Output, nil, cache)
		if err != nil {
			st = &stage{err: err}
		}
		stages[i] = st
	}
	return stages, ropts, nil
}

// enqueue is the one submission path of every execution entry point. It
// mints the job id, binds the trace carried by ctx to it, records the
// admission and queue_wait spans under ctx's current span, and submits run
// with the admission estimate; run's context carries the same trace and
// parent span. When admission rejects the job the trace binding is dropped
// and the error returned.
func (s *Server) enqueue(ctx context.Context, batches int, est int64, run jobs.RunFunc) (jobs.Snapshot, error) {
	id, err := jobs.NewID()
	if err != nil {
		return jobs.Snapshot{}, err
	}
	t := obs.TraceFromContext(ctx)
	parent := obs.SpanFromContext(ctx)
	// Bind before submitting: the manager makes a job visible — and
	// finishable — before SubmitWithID returns, so binding afterwards would
	// race the finish hook.
	s.bindJobTrace(id, t)
	admit := t.StartSpan("admission", parent)
	queueSpan := t.StartSpan("queue_wait", parent)
	snap, err := s.jobs.SubmitWithID(id, batches, est, func(jctx context.Context, batchDone func(int)) (any, error) {
		queueSpan.End()
		return run(obs.ContextWithSpan(obs.ContextWithTrace(jctx, t), parent), batchDone)
	})
	admit.End()
	if err != nil {
		queueSpan.End()
		// The job never became visible; the finish hook will not fire, so
		// drop the binding and its reference here.
		if bound := s.takeJobTrace(id); bound != nil {
			bound.Release()
		}
		return jobs.Snapshot{}, err
	}
	s.log.Debug("job submitted",
		slog.String(obs.LogJobID, id),
		slog.String(obs.LogTraceID, t.ID()),
		slog.Int("batches", batches),
		slog.Int64("est_bytes", est))
	return snap, nil
}

// executeAndWait is the one body of the synchronous routes, /execute and
// the unpackable coalesce=1 fallback: it resolves the batches, enqueues them
// as one admission-controlled job and blocks until the job's terminal event,
// so the results come back through the job's closure and the job itself
// retains nothing. failFast rejects the request over a batch that does not
// resolve, as /jobs does; otherwise that batch's error is its result. It
// returns the stages and their results, or ok=false when the error response
// is already written. A client that disconnects cancels the job and gets no
// answer.
func (s *Server) executeAndWait(w http.ResponseWriter, r *http.Request, req *JobRequest, failFast bool) ([]*stage, []BatchResult, bool) {
	stages, ropts, err := s.resolveBatches(r.Context(), req)
	if err == nil && failFast {
		err = firstStageError(stages)
	}
	if err != nil {
		s.writeInputError(w, err)
		return nil, nil, false
	}
	// The job writes results; they are read only after its terminal event.
	var results []BatchResult
	snap, err := s.enqueue(r.Context(), len(stages), estimateAdmissionBytes(stages), func(jctx context.Context, batchDone func(int)) (any, error) {
		var err error
		results, err = s.runStages(jctx, stages, ropts, false, batchDone)
		return nil, err
	})
	if err != nil {
		s.writeAdmissionError(w, err)
		return nil, nil, false
	}
	history, ch, unsubscribe, ok := s.jobs.Subscribe(snap.ID)
	if !ok {
		writeError(w, http.StatusInternalServerError, "job %s was evicted before it could be awaited", snap.ID)
		return nil, nil, false
	}
	defer unsubscribe()
	final := history[len(history)-1]
	for open := true; open; {
		select {
		case <-r.Context().Done():
			s.jobs.Cancel(snap.ID)
			return nil, nil, false
		case e, more := <-ch:
			if more {
				final = e
			}
			open = more
		}
	}
	switch jobs.Status(final.Type) {
	case jobs.StatusDone:
		return stages, results, true
	case jobs.StatusCancelled:
		writeError(w, http.StatusServiceUnavailable, "job %s cancelled: %s", snap.ID, final.Error)
	default:
		writeError(w, http.StatusInternalServerError, "job %s failed: %s", snap.ID, final.Error)
	}
	return nil, nil, false
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if coalesceRequested(r) {
		s.handleCoalescedSubmit(w, r, &req)
		return
	}
	// Submissions fail fast: 400 for malformed inputs, structured 422 for
	// incompatible handle chaining, 404 for unknown handles.
	stages, ropts, err := s.resolveBatches(r.Context(), &req)
	if err == nil {
		err = firstStageError(stages)
	}
	if err != nil {
		s.writeInputError(w, err)
		return
	}
	snap, err := s.enqueue(r.Context(), len(stages), estimateAdmissionBytes(stages), func(jctx context.Context, batchDone func(int)) (any, error) {
		return s.runStages(jctx, stages, ropts, false, batchDone)
	})
	s.writeSubmitted(w, r, snap, err)
}

// writeSubmitted answers an asynchronous submission (/jobs, /pipelines):
// 202 with the job's status and Location, or the admission rejection.
func (s *Server) writeSubmitted(w http.ResponseWriter, r *http.Request, snap jobs.Snapshot, err error) {
	if err != nil {
		s.writeAdmissionError(w, err)
		return
	}
	w.Header().Set("Location", "/jobs/"+snap.ID)
	st := jobStatusJSON(snap)
	st.TraceID = obs.TraceFromContext(r.Context()).ID()
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Server) writeAdmissionError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, jobs.ErrQueueFull), errors.Is(err, jobs.ErrOverBudget):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "%v", err)
	case errors.Is(err, jobs.ErrJobTooLarge):
		writeError(w, http.StatusRequestEntityTooLarge, "%v", err)
	case errors.Is(err, jobs.ErrClosed):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	snap, ok := s.jobs.Get(id)
	if !ok {
		// The in-memory record is gone (restart, or TTL eviction) but the
		// job may have completed with its result persisted: report it done
		// so clients — and the cluster's requeue logic — don't mistake a
		// finished job for a lost one.
		if rec, ok := s.storedResultExists(id); ok {
			writeJSON(w, http.StatusOK, JobStatus{
				JobID:   id,
				Status:  rec.Status,
				Batches: len(rec.Results), BatchesDone: len(rec.Results),
				CreatedAt: rec.FinishedAt.UTC().Format(time.RFC3339Nano),
			})
			return
		}
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	st := jobStatusJSON(snap)
	st.TraceID = s.tracer.TraceIDForJob(id)
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.jobs.Cancel(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, jobStatusJSON(snap))
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	result, snap, fs := s.jobs.FetchResult(id)
	switch fs {
	case jobs.FetchNotFound:
		// The in-memory record was lost to a restart or the TTL, but the
		// persisted copy still honors fetch-once: it is returned and
		// deleted in one step.
		if rec, ok := s.fetchStoredResult(id); ok {
			writeJSON(w, http.StatusOK, JobResult{JobID: id, Status: rec.Status, Results: rec.Results})
			return
		}
		writeError(w, http.StatusNotFound, "unknown job %q (results are evicted %s after completion)", id, s.jobs.Config().ResultTTL)
	case jobs.FetchNotDone:
		writeError(w, http.StatusConflict, "job %q is %s; poll GET /jobs/%s until it is done", id, snap.Status, id)
	case jobs.FetchGone:
		if snap.Status == jobs.StatusDone {
			writeError(w, http.StatusGone, "job %q result was already fetched (results are delivered exactly once)", id)
		} else {
			writeError(w, http.StatusGone, "job %q is %s: %s", id, snap.Status, snap.Error)
		}
	default:
		results, ok := result.([]BatchResult)
		if !ok {
			// Synchronous /execute jobs hand their results to the waiting
			// caller and retain nothing.
			writeError(w, http.StatusGone, "job %q delivered its result to its synchronous caller", id)
			return
		}
		// Drop the persisted copy so the just-delivered result cannot be
		// fetched a second time through the store after a restart.
		s.dropStoredResult(id)
		writeJSON(w, http.StatusOK, JobResult{JobID: id, Status: string(snap.Status), Results: results})
	}
}

// handleJobEvents streams a job's progress as server-sent events: the full
// history first (late subscribers replay from the start), then live events
// until the terminal one. Each event is `event: <type>` + `data: <JSON>`.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	history, ch, unsubscribe, ok := s.jobs.Subscribe(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	defer unsubscribe()
	flusher, canFlush := w.(http.Flusher)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	write := func(e jobs.Event) {
		data, _ := json.Marshal(e)
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", e.Type, data)
		if canFlush {
			flusher.Flush()
		}
	}
	for _, e := range history {
		write(e)
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case e, open := <-ch:
			if !open {
				return
			}
			write(e)
		}
	}
}

// resolveExecution looks up the execution context and its pinned program for
// an execute or job request, refreshing LRU recency. A context missing from
// the in-memory table (restart, LRU eviction) is restored from the durable
// store, so execution against a context id survives both.
func (s *Server) resolveExecution(programID, contextID string) (*contextEntry, *Entry, error) {
	ce, ok := s.lookupContext(contextID)
	if !ok {
		return nil, nil, errStatus(http.StatusNotFound, "unknown context %q; POST /contexts first", contextID)
	}
	if ce.Entry.ID != programID {
		return nil, nil, errStatus(http.StatusConflict, "context %q belongs to program %q, not %q", contextID, ce.Entry.ID, programID)
	}
	s.registry.Get(programID) // refresh recency if still cached
	return ce, ce.Entry, nil
}

// runOptions resolves the per-request scheduler/worker knobs against the
// server's defaults and DoS clamps.
func (s *Server) runOptions(workers int, scheduler string) (execute.RunOptions, error) {
	sched, err := parseScheduler(scheduler)
	if err != nil {
		return execute.RunOptions{}, err
	}
	ropts := execute.RunOptions{Workers: workers, Scheduler: sched, DisableHoisting: s.cfg.DisableHoisting}
	if ropts.Workers <= 0 {
		ropts.Workers = s.cfg.DefaultWorkers
	}
	// Clamp the client-supplied knob: goroutines beyond the machine's
	// parallelism only cost memory, and an unbounded value is a DoS vector.
	if maxWorkers := 4 * runtime.GOMAXPROCS(0); ropts.Workers > maxWorkers {
		ropts.Workers = maxWorkers
	}
	return ropts, nil
}
