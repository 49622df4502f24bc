package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"eva/internal/apps"
	"eva/internal/compile"
	"eva/internal/core"
	"eva/internal/nn"
)

// TestAttribution slows one layer's call by a fixed delay and checks that the
// traced report moves that layer's self time by the delay and no other layer
// by more than noise, and that spans cover at least 95% of every request.
func TestAttribution(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the service workload twice")
	}
	const target, delay = "wire.decode", 30 * time.Millisecond
	run := func(d map[string]time.Duration) *report {
		t.Helper()
		rep, err := runWorkload(workloads["svc-regress"], runOptions{
			seed: 7, seconds: 1.5, traced: true, spansDir: t.TempDir(), delay: d, clients: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.correct || rep.failed != 0 {
			t.Fatalf("run failed: %v", rep.notes)
		}
		if c := rep.layers.minCoverage(); c < 0.95 {
			t.Errorf("spans cover only %.1f%% of some request's wall time", 100*c)
		}
		return rep
	}
	base := run(nil)
	slow := run(map[string]time.Duration{target: delay})

	for _, name := range spanLayers {
		b, s := base.layers.perRequestMS(name), slow.layers.perRequestMS(name)
		moved := s - b
		if name == target {
			if math.Abs(moved-ms(delay)) > math.Max(5, 0.3*b) {
				t.Errorf("%s self time moved %.2f ms (%.2f -> %.2f), want about %.0f ms", name, moved, b, s, ms(delay))
			}
			continue
		}
		// Run-to-run noise on a shared two-core machine stays below half the
		// delay, or below 30% of a layer that is itself much longer than the
		// delay (as every layer is under the race detector).
		if math.Abs(moved) > math.Max(ms(delay)/2, 0.3*b) {
			t.Errorf("%s self time moved %.2f ms (%.2f -> %.2f) though only %s was slowed", name, moved, b, s, target)
		}
	}
}

// TestCompilePassesMatchCompile requires the traced pass-by-pass sequence to
// reproduce compile.Compile on every program the benchmark compiles.
func TestCompilePassesMatchCompile(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	insecure := compile.DefaultOptions()
	insecure.AllowInsecure = true
	for _, n := range nn.All(nn.BenchConfig()) {
		prog, err := nn.BuildProgram(n, nn.RandomWeights(n, rng))
		if err != nil {
			t.Fatal(err)
		}
		checkPasses(t, n.Name, prog, insecure)
	}
	app, err := apps.MultivariateRegression(2048, 4)
	if err != nil {
		t.Fatal(err)
	}
	checkPasses(t, app.Name, app.Program, compile.DefaultOptions())
}

func checkPasses(t *testing.T, name string, prog *core.Program, opts compile.Options) {
	t.Helper()
	res, err := compile.Compile(prog, opts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	got, err := compilePasses(spanRef{}, prog, opts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if want := countsOf(res); got != want {
		t.Errorf("%s: passes gave %+v, compile.Compile %+v", name, got, want)
	}
}

// TestResultLine runs a short untraced and traced run and checks the printed
// result against the metric lists in BENCHMARK.json.
func TestResultLine(t *testing.T) {
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for trace, want := range map[string][]struct{ Name, Unit string }{"0": spec.EndToEnd, "1": spec.PerLayer} {
		var out bytes.Buffer
		err := run([]string{"--workload", "compile-nets", "--seed", "2", "--seconds", "0.5", "--trace", trace, "--spans", t.TempDir()}, &out, os.Stderr)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&res); err != nil {
			t.Fatalf("trace %s: last line %q: %v", trace, lines[len(lines)-1], err)
		}
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
			t.Errorf("trace %s: correct=%v attempted=%d failed=%d", trace, res.Correct, res.Attempted, res.Failed)
		}
		var got, exp []string
		for name, m := range res.Metrics {
			got = append(got, name+" "+m.Unit)
		}
		for _, m := range want {
			exp = append(exp, m.Name+" "+m.Unit)
		}
		sort.Strings(got)
		sort.Strings(exp)
		if strings.Join(got, ",") != strings.Join(exp, ",") {
			t.Errorf("trace %s: metrics\n%v\nwant (BENCHMARK.json)\n%v", trace, got, exp)
		}
	}
}
