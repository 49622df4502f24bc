package profile_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"eva/internal/profile"
	"eva/internal/store"
)

// malformedRecord is a parent-format persisted profile (testdata) with five
// executions and one latency bucket dropped from its first bucket: the shape
// another build's bounds would produce.
func malformedRecord(t *testing.T) (good, bad []byte) {
	t.Helper()
	good, err := os.ReadFile(filepath.Join("testdata", "profile_a.json"))
	if err != nil {
		t.Fatal(err)
	}
	bad = bytes.Replace(good, []byte(`"latency_buckets":[0,0,1,0,0,0,0,0]`), []byte(`"latency_buckets":[0,0,1,0,0,0,0]`), 1)
	bad = bytes.Replace(bad, []byte(`"executions":1`), []byte(`"executions":5`), 1)
	if bytes.Equal(bad, good) {
		t.Fatal("testdata changed: malformed record is unmodified")
	}
	return good, bad
}

// TestLoadProfilesSkipsMalformed: a store record whose histograms do not fit
// this build's bounds is skipped, not read with truncated or zero-padded
// buckets.
func TestLoadProfilesSkipsMalformed(t *testing.T) {
	good, bad := malformedRecord(t)
	st := store.NewMemory()
	defer st.Close()
	if err := st.Put(profile.KindProfile, "good", good); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(profile.KindProfile, "bad", bad); err != nil {
		t.Fatal(err)
	}
	mismatched := bytes.Replace(good, []byte(`"count":2`), []byte(`"count":3`), 1)
	if err := st.Put(profile.KindProfile, "mismatched", mismatched); err != nil {
		t.Fatal(err)
	}
	profiles, err := profile.LoadProfiles(st)
	if err != nil {
		t.Fatal(err)
	}
	if len(profiles) != 1 || profiles[0].ProgramID != "sq" {
		t.Fatalf("loaded %+v; want only the well-formed record", profiles)
	}
}

// TestPersistSkipsMalformedBaseline: when the stored baseline of a program
// is malformed, persisting drops it instead of merging it into the wrong
// buckets; the new record holds only this process's executions.
func TestPersistSkipsMalformedBaseline(t *testing.T) {
	_, bad := malformedRecord(t)
	res := buildDeepChain(t)
	st := store.NewMemory()
	defer st.Close()
	if err := st.Put(profile.KindProfile, "deep", bad); err != nil {
		t.Fatal(err)
	}
	c := profile.NewCollector(profile.Config{SampleRate: 1, Store: st})
	runProfiled(t, c, "deep", res, "", 7)
	c.Flush()

	profiles, err := profile.LoadProfiles(st)
	if err != nil {
		t.Fatal(err)
	}
	total := uint64(len(res.Program.TopoSort()))
	if len(profiles) != 1 || profiles[0].Executions != 1 || profiles[0].Samples != total {
		t.Fatalf("persisted %+v; want one record with 1 execution and %d samples", profiles, total)
	}
}

// TestMergeReportsRejectsMalformed: a peer report with another bucket count
// or other latency bounds fails Validate and contributes nothing to the
// merge.
func TestMergeReportsRejectsMalformed(t *testing.T) {
	res := buildDeepChain(t)
	c := profile.NewCollector(profile.Config{SampleRate: 1})
	runProfiled(t, c, "deep", res, "", 7)
	good := c.Report()
	if err := good.Validate(); err != nil {
		t.Fatalf("collector report fails validation: %v", err)
	}

	short := c.Report()
	short.Buckets[0].Sizes = short.Buckets[0].Sizes[1:]
	bounds := c.Report()
	bounds.LatencyBoundsUS[0] = 2
	count := c.Report()
	count.Buckets[0].Count++
	for name, rep := range map[string]profile.Report{"byte_buckets": short, "latency_bounds_us": bounds, "sum to": count} {
		err := rep.Validate()
		if err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("Validate() = %v; want an error naming %s", err, name)
		}
		merged := profile.MergeReports("m", []profile.Report{good, rep})
		if merged.Executions != good.Executions || merged.Samples != good.Samples {
			t.Errorf("%s: merged %d executions / %d samples; want the good report's %d / %d",
				name, merged.Executions, merged.Samples, good.Executions, good.Samples)
		}
	}
}
