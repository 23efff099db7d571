// Command jtpbench is the repository's benchmark: it runs one named
// workload of the simulator through its public entry points
// (workload.Generate, experiments.BuildScenario/Run, campaign.Execute,
// the report and shard functions), checks every campaign report against
// a stored digest, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics) by name and unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": 1200, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash jtpbench/run.sh --workload chain_sweep --seed 1 --seconds 30 --trace 0
//	bash jtpbench/run.sh --workload all --seed 1 --seconds 30 --trace 0
//
// See README.md for the workloads, the metrics and the baseline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: chain_sweep, mesh_churn, mobile_huge, or all")
		seed    = flag.Int64("seed", defaultSeed, "workload seed")
		seconds = flag.Float64("seconds", 30, "measurement time in seconds (untraced runs)")
		trace   = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
		record  = flag.String("record-digests", "", "recompute the stored report digests of --workload (default all) for these seeds (e.g. 0-39) into testdata/digests.json and exit")
	)
	flag.Parse()
	if *record != "" {
		if err := recordDigests(*name, *record); err != nil {
			fmt.Fprintln(os.Stderr, "jtpbench:", err)
			os.Exit(1)
		}
		return
	}
	if *name == "all" {
		os.Exit(runAll(*seed, *seconds, *trace))
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "jtpbench: unknown workload %q (want %s or all)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	var (
		res *result
		err error
	)
	if *trace == 1 {
		res, err = tracedBench(w, *seed)
	} else {
		res, err = measure(w, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "jtpbench:", err)
		os.Exit(1)
	}
	printResult(res)
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// printResult prints every metric by name and unit, then the JSON line.
func printResult(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-36s %16.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "jtpbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runAll runs every workload in its own child process, so peak RSS and
// heap state never carry over, and prints a combined result whose
// metric names are prefixed with the workload name.
func runAll(seed int64, seconds float64, trace int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "jtpbench:", err)
		return 1
	}
	all := &result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range workloads {
		fmt.Printf("== %s\n", w.name)
		cmd := exec.Command(self, "--workload", w.name, "--seed", fmt.Sprint(seed),
			"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
		cmd.Stderr = os.Stderr
		out, runErr := cmd.Output()
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		for _, l := range lines[:len(lines)-1] {
			fmt.Println(l)
		}
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			fmt.Fprintf(os.Stderr, "jtpbench: %s: no result (%v)\n", w.name, runErr)
			return 1
		}
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for k, v := range res.Metrics {
			all.Metrics[w.name+"."+k] = v
		}
	}
	line, err := json.Marshal(all)
	if err != nil {
		fmt.Fprintln(os.Stderr, "jtpbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !all.Correct {
		return 1
	}
	return 0
}
