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

	"eva/internal/analysis"
	"eva/internal/ckks"
	"eva/internal/compile"
	"eva/internal/core"
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
// and the unpackable coalesce=1 fallback through runAndWait, which enqueues
// and then waits for the job. So the budget bounds all of them alike.

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

// admissionUnit is one batch or pipeline stage as admission control sees
// it: the program it runs, its inputs resolved at submit, and how many
// demo-mode plaintext values the worker will still encrypt for it.
type admissionUnit struct {
	res     *compile.Result
	in      *execute.EncryptedInputs
	pending int
}

// estimateAdmissionBytes is the admission estimate of every execution path:
// the resident footprint of one job. Each distinct input ciphertext the job
// pins while queued counts once, by pointer — a resolved handle shared by
// many batches or stages is one allocation. Plain vectors count by their
// size, every pending demo value by a fresh-ciphertext placeholder, and the
// intermediates by the cost model's largest static peak across units: units
// run one after another inside the job, so their peaks never stack.
func estimateAdmissionBytes(units []admissionUnit) int64 {
	var est, peak int64
	seen := map[*ckks.Ciphertext]bool{}
	peaks := map[*compile.Result]bool{}
	for _, u := range units {
		for _, ct := range u.in.Cipher {
			if !seen[ct] {
				seen[ct] = true
				est += int64(ct.MemoryBytes())
			}
		}
		for _, pv := range u.in.Plain {
			est += int64(8 * len(pv))
		}
		res := u.res
		freshCt := 2 * int64(len(res.Plan.BitSizes)) * (int64(1) << uint(res.LogN)) * 8
		est += int64(u.pending) * freshCt
		if !peaks[res] {
			peaks[res] = true
			model := analysis.CostModel{LogN: res.LogN, TotalLevels: len(res.Plan.BitSizes)}
			peak = max(peak, model.EstimatePeakMemoryBytes(res.Program))
		}
	}
	return est + peak
}

// batchUnit is the admission unit of a batch resolved by buildBatchInputs:
// every Cipher input it has no ciphertext for is a demo value the worker
// still encrypts.
func batchUnit(res *compile.Result, in *execute.EncryptedInputs) admissionUnit {
	u := admissionUnit{res: res, in: in}
	for _, t := range res.Program.Inputs() {
		if _, ok := in.Cipher[t.Name]; t.InType == core.TypeCipher && !ok {
			u.pending++
		}
	}
	return u
}

// execPlan is a batch request (/execute, /jobs, or a coalesce=1 submission
// that cannot be packed) resolved at admission.
type execPlan struct {
	entry   *Entry
	ce      *contextEntry
	batches []ExecuteBatch
	// decoded holds each batch's inputs resolved at submit; errs the
	// resolution failure of a batch that cannot run.
	decoded []*execute.EncryptedInputs
	errs    []error
	ropts   execute.RunOptions
	output  string
}

// planExecution validates a batch request and resolves every batch's
// inputs: inline ciphertexts are decoded and validated and handles resolved
// and checked, while demo-mode plaintext values are only counted — the
// worker encrypts them when the batch runs. Request-level problems return
// an HTTP status and error. A batch whose inputs do not resolve keeps its
// error in errs: /jobs rejects the submission over it, /execute reports it
// in that batch's result.
func (s *Server) planExecution(stdctx context.Context, req *JobRequest) (*execPlan, int, error) {
	ce, entry, status, err := s.resolveExecution(req.ProgramID, req.ContextID)
	if err != nil {
		return nil, status, err
	}
	if len(req.Batches) == 0 {
		return nil, http.StatusBadRequest, errors.New("no batches")
	}
	if len(req.Batches) > maxBatchesPerRequest {
		return nil, http.StatusRequestEntityTooLarge, fmt.Errorf("%d batches exceeds the per-request limit of %d", len(req.Batches), maxBatchesPerRequest)
	}
	ropts, err := s.runOptions(req.Workers, req.Scheduler)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	if err := validOutputMode(req.Output); err != nil {
		return nil, http.StatusBadRequest, err
	}
	p := &execPlan{
		entry:   entry,
		ce:      ce,
		batches: req.Batches,
		decoded: make([]*execute.EncryptedInputs, len(req.Batches)),
		errs:    make([]error, len(req.Batches)),
		ropts:   ropts,
		output:  req.Output,
	}
	// One handle cache for all batches: a handle referenced by many batches
	// is resolved once, and counted once by the estimate.
	cache := newHandleCache()
	for i := range p.batches {
		p.decoded[i], p.errs[i] = s.buildBatchInputs(stdctx, ce, entry.Result, &p.batches[i], cache)
	}
	return p, http.StatusOK, nil
}

// estimate is the plan's admission charge over its runnable batches.
func (p *execPlan) estimate() int64 {
	var units []admissionUnit
	for i, in := range p.decoded {
		if p.errs[i] == nil {
			units = append(units, batchUnit(p.entry.Result, in))
		}
	}
	return estimateAdmissionBytes(units)
}

// runPlan executes the plan's batches in order inside its job, filling results;
// a batch that failed resolution gets its error as its result.
func (s *Server) runPlan(jctx context.Context, p *execPlan, results []BatchResult, batchDone func(int)) error {
	for i := range p.batches {
		if err := jctx.Err(); err != nil {
			return err
		}
		if p.errs[i] != nil {
			s.metrics.RecordExecutionError()
			results[i] = batchError("%v", p.errs[i])
		} else {
			results[i], _ = s.runBatch(jctx, p.entry, p.ce, &p.batches[i], p.decoded[i], p.ropts, p.output)
			p.decoded[i] = nil // release the pinned inputs as batches complete
		}
		batchDone(i)
	}
	return nil
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

// runAndWait is the synchronous face of the job path: it enqueues run as one
// admission-controlled job and blocks until the job's terminal event, so the
// results come back through run's closure and the job itself retains
// nothing. It reports whether the job finished and the caller should write
// its response; otherwise the error response is already written. A client
// that disconnects cancels the job and gets no answer.
func (s *Server) runAndWait(w http.ResponseWriter, r *http.Request, batches int, est int64, run func(context.Context, func(int)) error) bool {
	snap, err := s.enqueue(r.Context(), batches, est, func(jctx context.Context, batchDone func(int)) (any, error) {
		return nil, run(jctx, batchDone)
	})
	if err != nil {
		s.writeAdmissionError(w, err)
		return false
	}
	history, ch, unsubscribe, ok := s.jobs.Subscribe(snap.ID)
	if !ok {
		writeError(w, http.StatusInternalServerError, "job %s was evicted before it could be awaited", snap.ID)
		return false
	}
	defer unsubscribe()
	final := history[len(history)-1]
	for open := true; open; {
		select {
		case <-r.Context().Done():
			s.jobs.Cancel(snap.ID)
			return false
		case e, more := <-ch:
			if more {
				final = e
			}
			open = more
		}
	}
	switch jobs.Status(final.Type) {
	case jobs.StatusDone:
		return true
	case jobs.StatusCancelled:
		writeError(w, http.StatusServiceUnavailable, "job %s cancelled: %s", snap.ID, final.Error)
	default:
		writeError(w, http.StatusInternalServerError, "job %s failed: %s", snap.ID, final.Error)
	}
	return false
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
	p, status, err := s.planExecution(r.Context(), &req)
	if err != nil {
		writeError(w, status, "%v", err)
		return
	}
	// Submissions fail fast: 400 for malformed inputs, structured 422 for
	// incompatible handle chaining, 404 for unknown handles.
	for i, err := range p.errs {
		if err != nil {
			s.writeInputError(w, fmt.Errorf("batch %d: %w", i, err))
			return
		}
	}
	results := make([]BatchResult, len(p.batches))
	snap, err := s.enqueue(r.Context(), len(p.batches), p.estimate(), func(jctx context.Context, batchDone func(int)) (any, error) {
		if err := s.runPlan(jctx, p, results, batchDone); err != nil {
			return nil, err
		}
		return results, nil
	})
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
func (s *Server) resolveExecution(programID, contextID string) (*contextEntry, *Entry, int, error) {
	ce, ok := s.lookupContext(contextID)
	if !ok {
		return nil, nil, http.StatusNotFound, fmt.Errorf("unknown context %q; POST /contexts first", contextID)
	}
	if ce.Entry.ID != programID {
		return nil, nil, http.StatusConflict, fmt.Errorf("context %q belongs to program %q, not %q", contextID, ce.Entry.ID, programID)
	}
	s.registry.Get(programID) // refresh recency if still cached
	return ce, ce.Entry, http.StatusOK, nil
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
