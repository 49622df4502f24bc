package profile

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"eva/internal/execute"
)

func readTestdata(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestPersistedProfileCompat pins the persisted profile format. The testdata
// records were persisted by an earlier build (profile_merged.json is
// profile_a.json merged with profile_b.json by that build); decoding,
// merging and re-encoding them must reproduce those bytes exactly, so stores
// written by older builds keep loading and accumulating.
func TestPersistedProfileCompat(t *testing.T) {
	for _, name := range []string{"profile_a.json", "profile_b.json"} {
		raw := readTestdata(t, name)
		p, err := decodeProgramProfile(raw)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := p.mergeFrom(&ProgramProfile{}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, raw) {
			t.Errorf("%s re-encodes differently:\n got %s\nwant %s", name, got, raw)
		}
	}

	a, err := decodeProgramProfile(readTestdata(t, "profile_a.json"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := decodeProgramProfile(readTestdata(t, "profile_b.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.mergeFrom(b); err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	if want := readTestdata(t, "profile_merged.json"); !bytes.Equal(got, want) {
		t.Errorf("merged profile differs:\n got %s\nwant %s", got, want)
	}
}

// validReportJSON is a well-formed single-node /profile report.
func validReportJSON(tb testing.TB) []byte {
	tb.Helper()
	buckets := map[BucketKey]*bucket{}
	mul := bucketAt(buckets, BucketKey{Op: "MULTIPLY", Level: 2})
	mul.observe(execute.InstrRecord{Wall: 2 * time.Millisecond, OutBytes: 5000}, 10)
	mul.observe(execute.InstrRecord{Wall: 300 * time.Nanosecond, OutBytes: 64}, 0)
	rot := bucketAt(buckets, BucketKey{Op: "ROTATE_LEFT", Level: 1, Hoisted: true})
	rot.observe(execute.InstrRecord{Wall: 40 * time.Millisecond, OutBytes: 1 << 20}, 500)
	rep := Report{
		Node:            "n1",
		Enabled:         true,
		SampleRate:      1,
		Executions:      1,
		Instructions:    3,
		Samples:         3,
		LatencyBoundsUS: latencyBoundsUS(),
		ByteBounds:      ByteBounds,
		Buckets:         wireBuckets(buckets, nil),
		Programs:        []ProgramSummary{{ProgramID: "p", Executions: 1, Instructions: 3, Samples: 3}},
	}
	data, err := json.Marshal(rep)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// FuzzMergeReports feeds arbitrary peer /profile JSON to MergeReports: it
// must never panic, a report that fails Validate must contribute nothing,
// and the merged counters must be exactly the sums over accepted reports.
func FuzzMergeReports(f *testing.F) {
	good := validReportJSON(f)
	f.Add(good, good)
	f.Add(good, bytes.Replace(good, []byte(`"latency_buckets":[0,`), []byte(`"latency_buckets":[`), 1))
	f.Add(good, bytes.Replace(good, []byte(`"latency_bounds_us":[1,`), []byte(`"latency_bounds_us":[2,`), 1))
	f.Add(good, bytes.Replace(good, []byte(`"count":2`), []byte(`"count":3`), 1))
	f.Add([]byte(`{"buckets":[{"op":"ADD","count":1}]}`), []byte(`not json`))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		var reports []Report
		for _, data := range [][]byte{a, b} {
			var rep Report
			// The cluster turns an undecodable peer body into an error entry
			// before merging, so only decoded reports reach MergeReports.
			if json.Unmarshal(data, &rep) == nil {
				reports = append(reports, rep)
			}
		}
		merged := MergeReports("fuzz", reports)
		var execs, samples uint64
		want := map[BucketKey]uint64{}
		for i := range reports {
			if reports[i].Validate() != nil {
				continue
			}
			execs += reports[i].Executions
			samples += reports[i].Samples
			for _, bk := range reports[i].Buckets {
				want[bk.key()] += bk.Count
			}
		}
		if merged.Executions != execs || merged.Samples != samples {
			t.Fatalf("merged executions/samples %d/%d, want %d/%d", merged.Executions, merged.Samples, execs, samples)
		}
		if len(merged.Buckets) != len(want) {
			t.Fatalf("merged %d buckets, want %d", len(merged.Buckets), len(want))
		}
		for _, bk := range merged.Buckets {
			if bk.Count != want[bk.key()] {
				t.Fatalf("merged bucket %v count %d, want %d", bk.key(), bk.Count, want[bk.key()])
			}
		}
		if err := merged.Validate(); err != nil {
			t.Fatalf("merged report fails its own validation: %v", err)
		}
	})
}
