package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"eva/internal/jobs"
	"eva/internal/obs"
)

// These tests pin the single execution path: every route that executes
// work — /execute, /jobs, /jobs?coalesce=1, /pipelines — is one job through
// the manager, charged by one estimator and bounded by one budget.

// TestPipelineHandleEstimateMatchesJob: a one-stage pipeline whose input is
// a stored handle is charged exactly what a /jobs submission of the same
// program over the same handle is. The handle ciphertext counts once.
func TestPipelineHandleEstimateMatchesJob(t *testing.T) {
	ts, _ := newTestServer(t, Config{AllowServerKeygen: true, JobWorkers: 1})
	client := ts.Client()
	p1, c1, p2, c2 := pipelinePrograms(t, client, ts.URL)

	// Produce a handle to feed stage 2's program.
	produced, resp := postJSON[JobStatus](t, client, ts.URL+"/jobs", JobRequest{
		ProgramID: p1, ContextID: c1, Output: outputHandle,
		Batches: []ExecuteBatch{{Values: map[string][]float64{"x": {1, 2, 3, 4}, "y": {2, 2, 2, 2}}}},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("producer job: status %d", resp.StatusCode)
	}
	readSSE(t, client, ts.URL+"/jobs/"+produced.JobID+"/events")
	result := getJSON[JobResult](t, client, ts.URL+"/jobs/"+produced.JobID+"/result")
	handleID := result.Results[0].Handles["out"]
	if handleID == "" {
		t.Fatalf("producer job returned no handle: %+v", result.Results)
	}

	job, resp := postJSON[JobStatus](t, client, ts.URL+"/jobs", JobRequest{
		ProgramID: p2, ContextID: c2, Output: outputValues,
		Batches: []ExecuteBatch{{Handles: map[string]string{"z": handleID}}},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("handle job: status %d", resp.StatusCode)
	}
	pipe, resp := postJSON[JobStatus](t, client, ts.URL+"/pipelines", PipelineRequest{
		Stages: []PipelineStage{{
			ProgramID: p2, ContextID: c2,
			Inputs: map[string]PipelineInput{"z": {Handle: handleID}},
			Output: outputValues,
		}},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("handle pipeline: status %d", resp.StatusCode)
	}
	if job.EstBytes <= 0 || pipe.EstBytes != job.EstBytes {
		t.Errorf("pipeline est_bytes %d, /jobs est_bytes %d; a handle input must be charged once on both", pipe.EstBytes, job.EstBytes)
	}
}

// status and Retry-After of one POST, for the shedding floods.
type postOutcome struct {
	status     int
	retryAfter string
}

func postOutcomeOf(t *testing.T, client *http.Client, url string, body any) postOutcome {
	t.Helper()
	payload, err := json.Marshal(body)
	if err != nil {
		t.Error(err)
		return postOutcome{}
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Error(err)
		return postOutcome{}
	}
	resp.Body.Close()
	return postOutcome{resp.StatusCode, resp.Header.Get("Retry-After")}
}

// rootChildren returns the sorted names of the root span's children.
func rootChildren(t *testing.T, tr obs.TraceJSON) []string {
	t.Helper()
	if len(tr.Spans) != 1 {
		t.Fatalf("trace %s has %d root spans, want 1", tr.TraceID, len(tr.Spans))
	}
	var names []string
	for _, sp := range tr.Spans[0].Children {
		names = append(names, sp.Name)
	}
	sort.Strings(names)
	return names
}

// TestSynchronousRoutesObeyAdmission floods /execute and ciphertext-carrying
// coalesce=1 submissions at a server whose memory budget, and then whose
// queue, is exhausted: both are shed with 429 and Retry-After exactly where
// /jobs is. Once the load clears, /execute runs again, and its trace has the
// same admission → queue_wait → execute shape as a /jobs trace.
func TestSynchronousRoutesObeyAdmission(t *testing.T) {
	const budget = int64(64 << 20)
	f := newHandleFixture(t, Config{JobWorkers: 1, JobQueueDepth: 1, JobMemoryBudgetBytes: budget})
	m := f.srv.Jobs()
	batch := ExecuteBatch{Cipher: map[string]string{
		"x": f.encryptB64(t, "x", []float64{1, 2, 3, 4, 5, 6, 7, 8}),
		"y": f.encryptB64(t, "y", []float64{1, 1, 1, 1, 1, 1, 1, 1}),
	}}
	exec := ExecuteRequest{ContextID: f.contextID, Batches: []ExecuteBatch{batch}}
	job := JobRequest{ProgramID: f.programID, ContextID: f.contextID, Batches: []ExecuteBatch{batch}}

	block := func(release chan struct{}) jobs.RunFunc {
		return func(ctx context.Context, _ func(int)) (any, error) {
			select {
			case <-release:
			case <-ctx.Done():
			}
			return nil, ctx.Err()
		}
	}
	waitFor := func(what string, cond func(jobs.Stats) bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond(m.Stats()) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s: %+v", what, m.Stats())
			}
			time.Sleep(time.Millisecond)
		}
	}
	flood := func(phase string) {
		t.Helper()
		const perRoute = 8
		routes := []struct {
			name, url string
			body      any
		}{
			{"/execute", f.url + "/execute/" + f.programID, exec},
			{"coalesce=1", f.url + "/jobs?coalesce=1", job},
			{"/jobs", f.url + "/jobs", job},
		}
		shedBefore := m.Stats().Shed
		outcomes := make([]postOutcome, perRoute*len(routes))
		var wg sync.WaitGroup
		for i := range outcomes {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				r := routes[i%len(routes)]
				outcomes[i] = postOutcomeOf(t, f.client, r.url, r.body)
			}(i)
		}
		wg.Wait()
		for i, o := range outcomes {
			if o.status != http.StatusTooManyRequests || o.retryAfter == "" {
				t.Errorf("%s: %s request %d: status %d Retry-After %q; want 429 with Retry-After",
					phase, routes[i%len(routes)].name, i, o.status, o.retryAfter)
			}
		}
		if shed := m.Stats().Shed - shedBefore; shed != uint64(len(outcomes)) {
			t.Errorf("%s: admission shed %d submissions, want %d", phase, shed, len(outcomes))
		}
	}

	// The memory budget is held in full by one running job.
	release := make(chan struct{})
	if _, err := m.Submit(1, budget, block(release)); err != nil {
		t.Fatal(err)
	}
	flood("budget exhausted")
	close(release)
	waitFor("the budget to drain", func(s jobs.Stats) bool { return s.AdmittedBytes == 0 && s.Running == 0 })

	// The worker is busy and the depth-1 queue is full.
	release = make(chan struct{})
	if _, err := m.Submit(1, 0, block(release)); err != nil {
		t.Fatal(err)
	}
	waitFor("the first blocker to run", func(s jobs.Stats) bool { return s.Running == 1 })
	if _, err := m.Submit(1, 0, block(release)); err != nil {
		t.Fatal(err)
	}
	flood("queue full")
	close(release)
	waitFor("the queue to drain", func(s jobs.Stats) bool { return s.QueueDepth == 0 && s.Running == 0 })

	// Unloaded, /execute runs and traces like a job.
	payload, err := json.Marshal(exec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := f.client.Post(f.url+"/execute/"+f.programID, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	var execResp ExecuteResponse
	err = json.NewDecoder(resp.Body).Decode(&execResp)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || len(execResp.Results) != 1 || execResp.Results[0].Error != "" {
		t.Fatalf("unloaded /execute: status %d err %v results %+v", resp.StatusCode, err, execResp.Results)
	}
	traceID := resp.Header.Get(obs.TraceHeader)
	var execTrace obs.TraceJSON
	deadline := time.Now().Add(10 * time.Second)
	for execTrace.TraceID == "" {
		for _, tr := range getJSON[TracesResponse](t, f.client, f.url+"/traces?limit=256").Traces {
			if tr.TraceID == traceID {
				execTrace = tr
			}
		}
		if execTrace.TraceID == "" {
			if time.Now().After(deadline) {
				t.Fatalf("trace %s of the /execute call never reached GET /traces", traceID)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	if execTrace.JobID == "" {
		t.Errorf("/execute trace is bound to no job: %+v", execTrace)
	}

	submitted, resp := postJSON[JobStatus](t, f.client, f.url+"/jobs", job)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs: status %d", resp.StatusCode)
	}
	readSSE(t, f.client, f.url+"/jobs/"+submitted.JobID+"/events")
	jobTrace := getJSON[obs.TraceJSON](t, f.client, f.url+"/jobs/"+submitted.JobID+"/trace")

	got, want := rootChildren(t, execTrace), rootChildren(t, jobTrace)
	if strings.Join(got, ",") != "admission,execute,queue_wait" || strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("/execute route children %v, /jobs route children %v; want both [admission execute queue_wait]", got, want)
	}
}

// TestExecuteDisconnectCancelsJob: a client that goes away mid-/execute
// cancels the job running its batches, which releases its admission charge.
func TestExecuteDisconnectCancelsJob(t *testing.T) {
	f := newJobsFixture(t, Config{JobWorkers: 1})
	m := f.srv.Jobs()
	batches := make([]ExecuteBatch, 512)
	for i := range batches {
		batches[i] = ExecuteBatch{Values: f.inputs}
	}
	payload, err := json.Marshal(ExecuteRequest{ContextID: f.contextID, Batches: batches})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, f.url+"/execute/"+f.programID, bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		resp, err := f.client.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()

	deadline := time.Now().Add(10 * time.Second)
	for m.Stats().Running != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("the /execute job never started: %+v", m.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if st := m.Stats(); st.AdmittedBytes <= 0 {
		t.Fatalf("running /execute job holds no admission charge: %+v", st)
	}
	cancel()
	if err := <-done; err == nil {
		t.Fatal("the cancelled request completed")
	}

	deadline = time.Now().Add(10 * time.Second)
	for {
		st := m.Stats()
		if st.Cancelled == 1 && st.AdmittedBytes == 0 && st.Running == 0 {
			if st.Completed != 0 {
				t.Errorf("%d jobs completed; the disconnected one must not", st.Completed)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("disconnect did not cancel the job: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSynchronousExecuteAtOneJobBudget: at a memory budget of exactly one
// job's estimate, back-to-back synchronous /execute calls are never shed —
// the finished job's charge is released before its caller is answered — and
// /metrics read right after each answer already counts the job completed.
func TestSynchronousExecuteAtOneJobBudget(t *testing.T) {
	probe := newJobsFixture(t, Config{JobWorkers: 1})
	priced, resp := postJSON[JobStatus](t, probe.client, probe.url+"/jobs", JobRequest{
		ProgramID: probe.programID, ContextID: probe.contextID,
		Batches: []ExecuteBatch{{Values: probe.inputs}},
	})
	if resp.StatusCode != http.StatusAccepted || priced.EstBytes <= 0 {
		t.Fatalf("pricing one job: status %d est %d", resp.StatusCode, priced.EstBytes)
	}

	f := newJobsFixture(t, Config{JobWorkers: 1, JobMemoryBudgetBytes: priced.EstBytes})
	req := ExecuteRequest{ContextID: f.contextID, Batches: []ExecuteBatch{{Values: f.inputs}}}
	for i := 1; i <= 40; i++ {
		out, resp := postJSON[ExecuteResponse](t, f.client, f.url+"/execute/"+f.programID, req)
		if resp.StatusCode != http.StatusOK || len(out.Results) != 1 || out.Results[0].Error != "" {
			t.Fatalf("call %d: status %d with %d results; want 200", i, resp.StatusCode, len(out.Results))
		}
		jobs := getJSON[MetricsReport](t, f.client, f.url+"/metrics").Jobs
		if jobs.AdmittedBytes != 0 || jobs.Completed != uint64(i) || jobs.Running != 0 {
			t.Fatalf("after call %d: admitted %d completed %d running %d; want 0, %d, 0", i, jobs.AdmittedBytes, jobs.Completed, jobs.Running, i)
		}
	}
}
