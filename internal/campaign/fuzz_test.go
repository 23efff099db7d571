package campaign

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzMergeShardFiles throws arbitrary JSON at the shard merge: the
// bytes decode as a list of shard files (the form `jtpsim merge` and
// the coordinator read from disk), and MergeAvailable and MergeReports
// must never panic. Any report they accept must render as JSON and CSV.
func FuzzMergeShardFiles(f *testing.F) {
	// A small matrix keeps the seeds short, so the fuzzer's minimization
	// of each new input stays fast.
	m := Matrix{
		Name:     "fuzz",
		Axes:     []Axis{{Name: "proto", Values: Strings("jtp", "tcp")}, {Name: "nodes", Values: Ints(2, 4)}},
		Runs:     2,
		BaseSeed: 1,
	}
	var set []ShardFile
	for i := 0; i < 3; i++ {
		rep, err := Execute(context.Background(), m, Options{Shard: Shard{i, 3}}, seededRun)
		if err != nil {
			f.Fatal(err)
		}
		set = append(set, *BuildShardFile(rep))
	}
	for _, files := range [][]ShardFile{set, set[:2], {set[1]}, {set[0], set[0]}} {
		data, err := json.Marshal(files)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`[{"version":1,"campaign":"x","axes":["a"],"shard":{"index":1,"of":1},"numCells":1,"runsPerCell":1,"cells":[]}]`))
	f.Add([]byte(`[{"version":1,"campaign":"x","axes":["a"],"shard":{"index":0,"of":-3},"numCells":1,"runsPerCell":1,"cells":[]}]`))
	f.Add([]byte(`[]`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var files []ShardFile
		if err := json.Unmarshal(data, &files); err != nil {
			return
		}
		ptrs := make([]*ShardFile, len(files))
		for i := range files {
			ptrs[i] = &files[i]
		}
		rep, _, err := MergeAvailable(ptrs...)
		if err == nil {
			render(t, rep)
		}
		if rep, err := MergeReports(ptrs...); err == nil {
			render(t, rep)
		}
	})
}

// render asserts an accepted merged report renders in every format.
func render(t *testing.T, rep *Report) {
	t.Helper()
	if _, err := rep.JSON(); err != nil {
		t.Fatalf("accepted report does not render as JSON: %v", err)
	}
	_ = rep.CSV()
}

// FuzzCheckpointResume throws arbitrary checkpoint JSON at Execute's
// resume path for a small fixed matrix, unsharded or as either half of
// a 2-way split. Input that decodes gets this campaign's version and
// fingerprint patched in, so it reaches validate and restore rather
// than the identity checks. Execute must never panic, and every report
// it returns must render as JSON and CSV with no NaN.
func FuzzCheckpointResume(f *testing.F) {
	m := Matrix{
		Name:     "fuzz",
		Axes:     []Axis{{Name: "proto", Values: Strings("jtp", "tcp")}, {Name: "nodes", Values: Ints(2, 4)}},
		Runs:     2,
		BaseSeed: 1,
	}
	shards := []Shard{{0, 1}, {0, 2}, {1, 2}}
	for i, sh := range shards {
		ck := filepath.Join(f.TempDir(), "ck.json")
		if _, err := Execute(context.Background(), m, Options{Shard: sh, Checkpoint: ck}, shardedTelRun); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(ck)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data, uint8(i))
	}
	f.Add([]byte(`{"version":1,"nextSeq":0,"state":{"numCells":4,"runsPerCell":2,"cells":[]}}`), uint8(0))
	f.Add([]byte(`{"version":1,"nextSeq":3,"state":{"numCells":4,"runsPerCell":2,"runs":3,"cells":[{"index":0,"values":["jtp","2"],"runs":2},{"index":1,"values":["jtp","4"],"runs":1,"observables":{"energy":{"n":1,"mean":1e300,"m2":0,"min":1e300,"max":1e300,"sum":1e300}}}]}}`), uint8(1))

	f.Fuzz(func(t *testing.T, data []byte, shard uint8) {
		sh := shards[int(shard)%len(shards)]
		var cp Checkpoint
		if json.Unmarshal(data, &cp) == nil {
			specs := sh.filterSpecs(m.Expand(), m.NumCells(), m.runsPerCell())
			cp.Version = ShardFileVersion
			cp.Fingerprint = campaignFingerprint(&m, sh, specs)
			var err error
			if data, err = json.Marshal(&cp); err != nil {
				t.Fatal(err)
			}
		}
		ck := filepath.Join(t.TempDir(), "ck.json")
		if err := os.WriteFile(ck, data, 0o644); err != nil {
			t.Fatal(err)
		}
		rep, err := Execute(context.Background(), m, Options{
			Workers:    1,
			Shard:      sh,
			Checkpoint: ck,
			Warn:       func(string, ...any) {},
		}, shardedTelRun)
		if err != nil {
			return
		}
		// JSON refuses NaN outright; CSV would print it.
		if _, err := rep.JSON(); err != nil {
			t.Fatalf("resumed report does not render as JSON: %v", err)
		}
		if csv := rep.CSV(); strings.Contains(csv, "NaN") {
			t.Fatalf("resumed report renders NaN:\n%s", csv)
		}
	})
}
