package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"runtime/pprof"
	"strconv"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite "+countersFile)

const countersFile = "testdata/counters.json"

// TestChainSweepDigestWorkerInvariant runs the full chain_sweep campaign
// at 1 and 2 workers: the report bytes must not depend on the worker
// count, and must match the stored digest.
func TestChainSweepDigestWorkerInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size campaign")
	}
	p, err := chainSweep(defaultSeed, full)
	if err != nil {
		t.Fatal(err)
	}
	got := map[int]string{}
	for _, workers := range []int{1, 2} {
		p.workers = workers
		ps, err := p.execute(plain, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := ps.report.Err(); err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		got[workers] = ps.digest
	}
	if got[1] != got[2] {
		t.Fatalf("report digest at 1 worker %s, at 2 workers %s", got[1], got[2])
	}
	if want := storedDigests["chain_sweep"][strconv.Itoa(defaultSeed)]; got[1] != want {
		t.Fatalf("report digest %s, stored %s", got[1], want)
	}
}

// TestStoredDigests checks every workload has a stored digest for the
// default and the held-out seed.
func TestStoredDigests(t *testing.T) {
	for _, w := range workloads {
		for _, seed := range []int{defaultSeed, heldOutSeed} {
			if storedDigests[w.name][strconv.Itoa(seed)] == "" {
				t.Errorf("%s: no stored digest for seed %d", w.name, seed)
			}
		}
	}
}

// TestCounterGoldens pins every per-layer work counter of each workload
// at its reduced size, for the default and the held-out seed. The
// counters are exact, so an algorithmic change (more BFS computes, more
// link-state rows patched, more events) fails here without timing.
// Run with -update to rewrite the goldens after an intended change.
func TestCounterGoldens(t *testing.T) {
	got := map[string]map[string]map[string]uint64{}
	for _, w := range workloads {
		got[w.name] = map[string]map[string]uint64{}
		for _, seed := range []int64{defaultSeed, heldOutSeed} {
			p, err := w.plan(seed, small)
			if err != nil {
				t.Fatal(err)
			}
			tel, err := p.execute(telemetry, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := tel.report.Err(); err != nil {
				t.Fatalf("%s seed %d: %v", w.name, seed, err)
			}
			trc, err := p.execute(traced, newTracer())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(tel.counters, trc.counters) || tel.digest != trc.digest {
				t.Errorf("%s seed %d: telemetry and traced arms disagree", w.name, seed)
			}
			counts := map[string]uint64{}
			for k, v := range layerCounters(tel.counters) {
				if countUnit(k) == "count" {
					counts[k] = uint64(v)
				}
			}
			got[w.name][strconv.FormatInt(seed, 10)] = counts
		}
	}
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(countersFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(countersFile)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]map[string]map[string]uint64
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for wl, seeds := range want {
		for seed, counts := range seeds {
			for k, v := range counts {
				if g, ok := got[wl][seed][k]; !ok || g != v {
					t.Errorf("%s seed %s: %s = %d, golden %d", wl, seed, k, g, v)
				}
			}
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("counter set differs from %s (run with -update after an intended change)", countersFile)
	}
}

func TestCovered(t *testing.T) {
	iv := [][2]float64{{3, 5}, {0, 2}, {1, 4}, {6, 12}}
	if got := covered(iv, 0, 10); got != 5+4 {
		t.Fatalf("covered = %g, want 9", got)
	}
}

func TestSelfTimes(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 10},
		{ID: 1, Parent: 0, Name: "child", Start: 1, End: 4},
		{ID: 2, Parent: 0, Name: "child", Start: 3, End: 6},
		{ID: 3, Parent: 1, Name: "leaf", Start: 2, End: 3},
	}}
	self := tr.selfTimes()
	want := map[string]float64{"root": 5, "child": 3 - 1 + 3, "leaf": 1}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
}

func TestTailOf(t *testing.T) {
	v := make([]float64, 200)
	for i := range v {
		v[i] = float64(i)
	}
	if got, pct := tailOf(v, nil); got != 189 || pct != 95 {
		t.Fatalf("tail of 200 = %g at p%g, want 189 at p95", got, pct)
	}
	if got, pct := tailOf(v[:99], []float64{30, 98, 50}); got != 50 || pct != 0 {
		t.Fatalf("tail of 99 = %g at p%g, want the median slowest run 50", got, pct)
	}
}

func TestParseCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiling unavailable:", err)
	}
	x := 0
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		x++
	}
	pprof.StopCPUProfile()
	p, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if p.total() == 0 || len(p.stacks) == 0 {
		t.Skipf("no samples in 300 ms (x=%d)", x)
	}
	flat, cum := p.topFuncs(5)
	if len(flat) == 0 || len(cum) == 0 {
		t.Fatal("no functions in a non-empty profile")
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"github.com/javelen/jtp/internal/mac.(*MAC).onSlot":               "mac",
		"github.com/javelen/jtp/internal/transport/drivers.init":          "transport",
		"github.com/javelen/jtp/internal/node.(*Network).BudgetExhausted": "node",
		"runtime.mallocgc":                 "runtime",
		"internal/runtime/maps.(*Map).Get": "runtime",
		"math.archHypot":                   "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
