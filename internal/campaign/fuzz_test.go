package campaign

import (
	"context"
	"encoding/json"
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
