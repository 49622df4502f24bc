package serve

import (
	"io"
	"net/http"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"eva/internal/obs"
	"eva/internal/profile"
)

// TestOneInstructionStreamOneAnswer: every per-opcode count the server
// reports — the JSON /metrics histogram, the Prometheus
// eva_op_duration_seconds histogram, and the /profile buckets at sample rate
// 1 — comes from the executor's one OnInstruction stream, so after an
// /execute of a program with rotations and multiplies each equals the number
// of that opcode's terms in the compiled program, and the execute span
// carries an op.<OP>_ms attribute for exactly those opcodes.
func TestOneInstructionStreamOneAnswer(t *testing.T) {
	f := newJobsFixture(t, Config{ProfileSampleRate: 1})
	execResp, resp := postJSON[ExecuteResponse](t, f.client, f.url+"/execute/"+f.programID, ExecuteRequest{
		ContextID: f.contextID,
		Batches:   []ExecuteBatch{{Values: f.inputs}},
	})
	if resp.StatusCode != http.StatusOK || execResp.Results[0].Error != "" {
		t.Fatalf("execute: status %d, results %+v", resp.StatusCode, execResp.Results)
	}
	traceID := resp.Header.Get(obs.TraceHeader)

	entry, ok := f.srv.registry.Get(f.programID)
	if !ok {
		t.Fatal("compiled program not in the registry")
	}
	want := map[string]uint64{}
	for _, term := range entry.Result.Program.TopoSort() {
		want[term.Op.String()]++
	}
	for _, op := range []string{"ROTATE_LEFT", "MULTIPLY"} {
		if want[op] == 0 {
			t.Fatalf("test program has no %s term: %v", op, want)
		}
	}

	metricsRep := getJSON[MetricsReport](t, f.client, f.url+"/metrics")
	fromMetrics := map[string]uint64{}
	for op, h := range metricsRep.PerOp {
		if h.Count > 0 {
			fromMetrics[op] = h.Count
		}
	}

	r, err := f.client.Get(f.url + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(r.Body)
	r.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParseExposition(body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	fromProm := map[string]uint64{}
	if fam := fams["eva_op_duration_seconds"]; fam != nil {
		for _, s := range fam.Samples {
			if s.Name == "eva_op_duration_seconds_count" {
				fromProm[s.Labels["op"]] = uint64(s.Value)
			}
		}
	}

	fromProfile := map[string]uint64{}
	for _, b := range getJSON[profile.Report](t, f.client, f.url+"/profile").Buckets {
		fromProfile[b.Op] += b.Count
	}

	for name, got := range map[string]map[string]uint64{
		"/metrics per_op_latency":       fromMetrics,
		"eva_op_duration_seconds_count": fromProm,
		"/profile bucket counts":        fromProfile,
	} {
		if len(got) != len(want) {
			t.Errorf("%s covers opcodes %v; want %v", name, sortedOps(got), sortedOps(want))
		}
		for op, n := range want {
			if got[op] != n {
				t.Errorf("%s[%s] = %d; want %d compiled terms", name, op, got[op], n)
			}
		}
	}

	var execAttrs map[string]string
	deadline := time.Now().Add(10 * time.Second)
	for execAttrs == nil {
		for _, tr := range getJSON[TracesResponse](t, f.client, f.url+"/traces?limit=256").Traces {
			if tr.TraceID == traceID {
				execAttrs = findSpanAttrs(tr.Spans, "execute")
			}
		}
		if execAttrs == nil {
			if time.Now().After(deadline) {
				t.Fatalf("trace %s of the /execute call has no execute span in GET /traces", traceID)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	spanOps := map[string]uint64{}
	for k := range execAttrs {
		if op, ok := strings.CutPrefix(k, "op."); ok {
			spanOps[strings.TrimSuffix(op, "_ms")] = 1
		}
	}
	if got, exp := sortedOps(spanOps), sortedOps(want); !slices.Equal(got, exp) {
		t.Errorf("execute span carries op.<OP>_ms for %v; want %v", got, exp)
	}
}

func findSpanAttrs(spans []obs.SpanJSON, name string) map[string]string {
	for _, sp := range spans {
		if sp.Name == name {
			return sp.Attrs
		}
		if attrs := findSpanAttrs(sp.Children, name); attrs != nil {
			return attrs
		}
	}
	return nil
}

func sortedOps(m map[string]uint64) []string {
	ops := make([]string, 0, len(m))
	for op := range m {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	return ops
}
