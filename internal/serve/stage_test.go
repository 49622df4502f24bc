package serve

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"math"
	"net/http"
	"sort"
	"strings"
	"testing"

	"eva/internal/obs"
)

// These tests pin the one resolver and the one runner behind every route:
// the same bad input gets the same answer from /jobs, a one-stage
// /pipelines and the coalesce=1 fallback, and every stage runs under one
// execute span.

// batchOf renders input bindings in the /execute and /jobs batch form.
func batchOf(bindings map[string]InputBinding) ExecuteBatch {
	var b ExecuteBatch
	for name, ib := range bindings {
		if ib.Handle != "" {
			if b.Handles == nil {
				b.Handles = map[string]string{}
			}
			b.Handles[name] = ib.Handle
		}
		if ib.Cipher != "" {
			if b.Cipher == nil {
				b.Cipher = map[string]string{}
			}
			b.Cipher[name] = ib.Cipher
		}
		if ib.Values != nil {
			if b.Values == nil {
				b.Values = map[string][]float64{}
			}
			b.Values[name] = ib.Values
		}
	}
	return b
}

// postStatus posts body and returns the status with the decoded error body.
func postStatus(t *testing.T, client *http.Client, url string, body any) (int, apiError) {
	t.Helper()
	out, resp := postJSON[apiError](t, client, url, body)
	return resp.StatusCode, out
}

// TestRouteParity sends the same bad input bindings through every route.
// /jobs, a one-stage /pipelines and the coalesce=1 ciphertext fallback
// reject each with the same status; /execute reports it as the batch's
// error.
func TestRouteParity(t *testing.T) {
	f := newHandleFixture(t, Config{})
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	goodX := f.putHandle(t, "x", vals)
	goodY := f.putHandle(t, "y", vals)
	// A ciphertext encoded 10 bits below x's compiled scale fails the
	// chaining check on the scale field.
	pt, err := f.encoder.Encode(vals, math.Exp2(f.scales["x"]-10), f.params.MaxLevel())
	if err != nil {
		t.Fatal(err)
	}
	ct, err := f.encryptor.Encrypt(pt)
	if err != nil {
		t.Fatal(err)
	}
	data, err := ct.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	badScale, resp := f.putHandleRaw(t, base64.StdEncoding.EncodeToString(data))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT /handles: status %d", resp.StatusCode)
	}
	y := InputBinding{Handle: goodY}

	cases := []struct {
		name     string
		bindings map[string]InputBinding
		want     int
	}{
		{"unknown handle", map[string]InputBinding{"x": {Handle: strings.Repeat("ab", 32)}, "y": y}, http.StatusNotFound},
		{"incompatible handle", map[string]InputBinding{"x": {Handle: badScale.ID}, "y": y}, http.StatusUnprocessableEntity},
		{"two sources", map[string]InputBinding{"x": {Handle: goodX, Values: vals}, "y": y}, http.StatusBadRequest},
		{"unknown handle and values", map[string]InputBinding{"x": {Handle: strings.Repeat("cd", 32), Values: vals}, "y": y}, http.StatusBadRequest},
		{"over-long values", map[string]InputBinding{"x": {Values: make([]float64, 4096)}, "y": y}, http.StatusBadRequest},
		{"empty values", map[string]InputBinding{"x": {Values: []float64{}}, "y": y}, http.StatusBadRequest},
		{"missing input", map[string]InputBinding{"y": y}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			job := JobRequest{ProgramID: f.programID, ContextID: f.contextID, Batches: []ExecuteBatch{batchOf(tc.bindings)}}
			routes := []struct {
				name, url string
				body      any
			}{
				{"/jobs", f.url + "/jobs", job},
				{"/pipelines", f.url + "/pipelines", PipelineRequest{Stages: []PipelineStage{{
					ProgramID: f.programID, ContextID: f.contextID, Inputs: tc.bindings,
				}}}},
				{"coalesce=1", f.url + "/jobs?coalesce=1", job},
			}
			for _, r := range routes {
				status, body := postStatus(t, f.client, r.url, r.body)
				if status != tc.want {
					t.Errorf("%s: status %d (%s); want %d", r.name, status, body.Error, tc.want)
				}
				if tc.want == http.StatusUnprocessableEntity && (len(body.Incompatibilities) != 1 || body.Incompatibilities[0].Field != "scale") {
					t.Errorf("%s: incompatibilities %+v; want one on the scale field", r.name, body.Incompatibilities)
				}
			}
			exec, resp := postJSON[ExecuteResponse](t, f.client, f.url+"/execute/"+f.programID, ExecuteRequest{
				ContextID: f.contextID, Batches: job.Batches,
			})
			if resp.StatusCode != http.StatusOK || len(exec.Results) != 1 || exec.Results[0].Error == "" {
				t.Errorf("/execute: status %d with %d results; want 200 with the batch's error", resp.StatusCode, len(exec.Results))
			}
		})
	}
}

// TestDemoValuesCheckedAtAdmission: demo values longer than the program's
// vector, or empty, are rejected when the job is submitted — before the
// job takes a queue slot and budget — not inside the worker.
func TestDemoValuesCheckedAtAdmission(t *testing.T) {
	f := newJobsFixture(t, Config{JobWorkers: 1})
	for name, x := range map[string][]float64{"over-long": make([]float64, 4096), "empty": {}} {
		batch := ExecuteBatch{Values: map[string][]float64{"x": x, "y": f.inputs["y"]}}
		status, body := postStatus(t, f.client, f.url+"/jobs", JobRequest{ProgramID: f.programID, ContextID: f.contextID, Batches: []ExecuteBatch{batch}})
		if status != http.StatusBadRequest {
			t.Errorf("%s values on /jobs: status %d (%s); want 400", name, status, body.Error)
		}
		status, body = postStatus(t, f.client, f.url+"/pipelines", PipelineRequest{Stages: []PipelineStage{{
			ProgramID: f.programID, ContextID: f.contextID, Output: outputValues,
			Inputs: map[string]InputBinding{"x": {Values: x}, "y": {Values: f.inputs["y"]}},
		}}})
		if status != http.StatusBadRequest {
			t.Errorf("%s values on /pipelines: status %d (%s); want 400", name, status, body.Error)
		}
		exec, resp := postJSON[ExecuteResponse](t, f.client, f.url+"/execute/"+f.programID, ExecuteRequest{
			ContextID: f.contextID, Batches: []ExecuteBatch{batch, {Values: f.inputs}},
		})
		if resp.StatusCode != http.StatusOK || len(exec.Results) != 2 {
			t.Fatalf("%s values on /execute: status %d with %d results; want 200 with 2", name, resp.StatusCode, len(exec.Results))
		}
		if !strings.Contains(exec.Results[0].Error, "values; want 1..8") || exec.Results[1].Error != "" || exec.Results[1].Values["out"] == nil {
			t.Errorf("%s values on /execute: errors %q, %q; want the first batch's length error and the second's values", name, exec.Results[0].Error, exec.Results[1].Error)
		}
	}
	if st := f.srv.Jobs().Stats(); st.Submitted != 2 || st.Failed != 0 {
		t.Errorf("jobs %+v; want only the two /execute jobs submitted and none failed", st)
	}
}

// TestPipelineTraceShape: a two-stage pipeline's trace has the shape of
// every other job — admission, queue_wait, and one execute span per stage,
// tagged with the stage index and program.
func TestPipelineTraceShape(t *testing.T) {
	ts, _ := newTestServer(t, Config{AllowServerKeygen: true, JobWorkers: 1})
	client := ts.Client()
	p1, c1, p2, c2 := pipelinePrograms(t, client, ts.URL)
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	status, resp := postJSON[JobStatus](t, client, ts.URL+"/pipelines", PipelineRequest{Stages: []PipelineStage{
		{ProgramID: p1, ContextID: c1, Inputs: map[string]PipelineInput{"x": {Values: vals}, "y": {Values: vals}}},
		{ProgramID: p2, ContextID: c2, Inputs: map[string]PipelineInput{"z": {Stage: intp(0)}}, Output: outputValues},
	}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("pipeline submit: status %d", resp.StatusCode)
	}
	readSSE(t, client, ts.URL+"/jobs/"+status.JobID+"/events")
	tr := getJSON[obs.TraceJSON](t, client, ts.URL+"/jobs/"+status.JobID+"/trace")
	if got := strings.Join(rootChildren(t, tr), ","); got != "admission,execute,execute,queue_wait" {
		t.Fatalf("pipeline route children [%s]; want [admission execute execute queue_wait]", got)
	}
	var stages []string
	for _, sp := range tr.Spans[0].Children {
		if sp.Name == "execute" {
			stages = append(stages, sp.Attrs["stage"]+"="+sp.Attrs["program"])
		}
	}
	sort.Strings(stages)
	if want := "0=" + p1 + ",1=" + p2; strings.Join(stages, ",") != want {
		t.Errorf("execute spans (stage=program) %v; want %s", stages, want)
	}
}

// FuzzResolveStages decodes arbitrary bytes as a PipelineRequest and as a
// JobRequest and resolves them against two compiled, chainable demo
// programs. Resolution never panics, every rejection is a 4xx, and every
// admitted request is charged a positive estimate. The tokens @P1, @C1, @P2,
// @C2 and @H stand for the fixture's program ids, context ids and a stored
// handle, so the corpus reaches past the id lookups.
func FuzzResolveStages(f *testing.F) {
	ts, srv := newTestServer(f, Config{AllowServerKeygen: true, JobWorkers: 1})
	client := ts.Client()
	p1, c1, p2, c2 := pipelinePrograms(f, client, ts.URL)
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	// The stored handle comes from running p1 once with "output": "handle".
	stages, ropts, err := srv.resolveBatches(context.Background(), &JobRequest{
		ProgramID: p1, ContextID: c1, Output: outputHandle,
		Batches: []ExecuteBatch{{Values: map[string][]float64{"x": vals, "y": vals}}},
	})
	if err != nil {
		f.Fatal(err)
	}
	results, err := srv.runStages(context.Background(), stages, ropts, false, func(int) {})
	if err != nil || results[0].Handles["out"] == "" {
		f.Fatalf("producing the fixture handle: %v %+v", err, results)
	}
	tokens := strings.NewReplacer("@P1", p1, "@C1", c1, "@P2", p2, "@C2", c2, "@H", results[0].Handles["out"])

	for _, seed := range []string{
		`{"stages":[{"program_id":"@P1","context_id":"@C1","inputs":{"x":{"values":[1,2]},"y":{"values":[3]}}},{"program_id":"@P2","context_id":"@C2","inputs":{"z":{"stage":0}},"output":"values"}]}`,
		`{"stages":[{"program_id":"@P2","context_id":"@C2","inputs":{"z":{"handle":"@H"}}}]}`,
		`{"stages":[{"program_id":"@P2","context_id":"@C2","inputs":{"z":{"stage":1,"output":"out"}}}]}`,
		`{"stages":[{"program_id":"@P1","context_id":"@C1","inputs":{"x":{"values":[1],"handle":"@H"},"y":{"cipher":"AAAA"}}}]}`,
		`{"program_id":"@P1","context_id":"@C1","batches":[{"values":{"x":[1,2,3],"y":[4]}},{"values":{"x":[],"y":[1]}}]}`,
		`{"program_id":"@P2","context_id":"@C2","output":"values","batches":[{"handles":{"z":"@H"}}]}`,
		`{"program_id":"@P1","context_id":"@C2","scheduler":"bulk","batches":[{"plain":{"x":[1]}}]}`,
	} {
		f.Add([]byte(seed))
	}
	check := func(t *testing.T, route string, stages []*stage, err error) {
		if err != nil {
			if status := inputErrorStatus(err); status < 400 || status > 499 {
				t.Errorf("%s rejected with status %d: %v", route, status, err)
			}
			return
		}
		if est := estimateAdmissionBytes(stages); est <= 0 {
			t.Errorf("%s admitted with estimate %d", route, est)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		data = []byte(tokens.Replace(string(data)))
		var preq PipelineRequest
		if json.NewDecoder(bytes.NewReader(data)).Decode(&preq) == nil {
			stages, _, err := srv.resolvePipeline(context.Background(), &preq)
			check(t, "pipeline", stages, err)
		}
		var jreq JobRequest
		if json.NewDecoder(bytes.NewReader(data)).Decode(&jreq) == nil {
			stages, _, err := srv.resolveBatches(context.Background(), &jreq)
			if err == nil {
				err = firstStageError(stages)
			}
			check(t, "job", stages, err)
		}
	})
}
