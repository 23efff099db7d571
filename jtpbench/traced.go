package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strings"

	"github.com/javelen/jtp/internal/campaign"
)

// traceDir is where traced runs write their span and counter file,
// relative to the working directory.
const traceDir = ".bench_build/traces"

// cpuLayers are the modules whose sampled self-CPU share is reported as
// <layer>.cpu_frac.
var cpuLayers = []string{
	"sim", "mac", "channel", "node", "routing", "topology", "mobility",
	"core", "ijtp", "cache", "tcpsack", "atp", "packet", "runtime",
}

// layerCounters maps the program's obs snapshot (folded over every run
// of a pass) to the per-layer count metrics and their ratios.
func layerCounters(c map[string]uint64) map[string]float64 {
	sum := func(prefix string) uint64 {
		var s uint64
		for k, v := range c {
			if strings.HasPrefix(k, prefix) {
				s += v
			}
		}
		return s
	}
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	f := func(k string) float64 { return float64(c[k]) }
	gets, misses := c["pool_gets"], c["pool_misses"]
	return map[string]float64{
		"sim.events_fired":             f("sim_events_fired"),
		"sim.events_scheduled":         f("sim_events_scheduled"),
		"sim.events_stopped":           f("sim_events_stopped"),
		"sim.fired_per_scheduled":      ratio(c["sim_events_fired"], c["sim_events_scheduled"]),
		"sim.heap_depth_hwm":           f("sim_heap_depth_hwm"),
		"mac.tx_attempts":              f("mac_tx_attempts"),
		"mac.tx_success":               f("mac_tx_success"),
		"mac.success_ratio":            ratio(c["mac_tx_success"], c["mac_tx_attempts"]),
		"mac.enqueues":                 f("mac_enqueues"),
		"mac.drops_queue":              f("mac_drops_queue"),
		"mac.drops_retries":            f("mac_drops_retries"),
		"mac.queue_depth_hwm":          f("mac_queue_depth_hwm"),
		"node.link_state_versions":     f("link_state_versions"),
		"node.linkstate_rows_patched":  f("linkstate_rows_patched"),
		"node.linkstate_full_rebuilds": f("linkstate_full_rebuilds"),
		"node.linkstate_patch_epochs":  f("linkstate_patch_epochs"),
		"node.drops_no_route":          f("node_drops_no_route"),
		"routing.fills":                f("route_fills"),
		"routing.bfs_computes":         f("route_bfs_computes"),
		"routing.cache_hit_ratio":      ratio(c["route_cache_hits"], c["route_fills"]),
		"routing.cache_evictions":      f("route_cache_evictions"),
		"cache.inserts":                float64(sum("cache_inserts_")),
		"cache.hits":                   float64(sum("cache_hits_")),
		"cache.evictions":              float64(sum("cache_evictions_")),
		"ijtp.cache_served":            f("ijtp_cache_served"),
		"ijtp.energy_drops":            f("ijtp_energy_drops"),
		"packet.pool_gets":             float64(gets),
		"packet.pool_misses":           float64(misses),
		"packet.pool_hit_ratio":        ratio(gets-min(misses, gets), gets),
		"energy.tx_events":             f("energy_tx_events"),
		"energy.rx_events":             f("energy_rx_events"),
	}
}

// countUnit is the unit of a layerCounters metric.
func countUnit(name string) string {
	switch name {
	case "sim.fired_per_scheduled", "mac.success_ratio", "routing.cache_hit_ratio", "packet.pool_hit_ratio":
		return "ratio"
	}
	return "count"
}

// tracedBench is the traced run. It executes the workload's campaign in
// four arms, twice each: untraced (the reference, with runtime and GC
// accounting), program telemetry on, fully traced (telemetry, spans
// around BuildScenario/BuiltScenario.Run, CPU profile), and on the
// 2-partition parallel kernel. Every arm's report must reproduce the
// reference digest, and the report must survive a shard write/read/
// merge round trip byte-identically. Spans and counters go to one file
// under traceDir.
func tracedBench(w workloadDef, seed int64) (*result, error) {
	tr := newTracer()
	root := tr.begin("bench.traced", -1)

	sp := tr.begin("workload.generate", root)
	p, err := w.plan(seed, full)
	tr.end(sp)
	if err != nil {
		return nil, err
	}

	// Arms alternate over two rounds and each keeps its fastest pass, so
	// a slow stretch of the shared machine does not land on one arm only.
	// Runtime accounting comes from the first untraced pass, counters and
	// spans from the first traced pass, CPU samples from both.
	type armDef struct {
		name string
		a    arm
	}
	armDefs := []armDef{{"arm.untraced", plain}, {"arm.telemetry", telemetry}, {"campaign.execute", traced}, {"arm.kernel_p2", kernel}}
	first := map[string]*pass{}
	wall := map[string]float64{} // fastest pass per arm, seconds
	type armPass struct {
		name string
		ps   *pass
	}
	var all []armPass
	var profiles []*cpuProfile
	var rt0, rt1 runtimeStats
	for round := 0; round < 2; round++ {
		for _, d := range armDefs {
			var prof bytes.Buffer
			if d.a == traced {
				if err := pprof.StartCPUProfile(&prof); err != nil {
					return nil, fmt.Errorf("cpu profile: %w", err)
				}
			}
			runtime.GC() // no arm pays for the previous arm's garbage
			before := readRuntime()
			sp := tr.begin(d.name, root)
			ps, err := p.execute(d.a, tr)
			tr.end(sp)
			if d.a == traced {
				pprof.StopCPUProfile()
			}
			if err != nil {
				return nil, err
			}
			if round == 0 && d.a == plain {
				rt0, rt1 = before, readRuntime()
			}
			if d.a == traced {
				pr, err := parseCPUProfile(prof.Bytes())
				if err != nil {
					return nil, err
				}
				profiles = append(profiles, pr)
				if round == 0 {
					tr.adopt(sp, ps.spans)
				}
			}
			all = append(all, armPass{d.name, ps})
			if _, ok := first[d.name]; !ok {
				first[d.name] = ps
				wall[d.name] = ps.wall.Seconds()
			}
			wall[d.name] = min(wall[d.name], ps.wall.Seconds())
		}
	}
	base, tel, trc := first["arm.untraced"], first["arm.telemetry"], first["campaign.execute"]
	baseWall, telWall, trcWall, kernWall := wall["arm.untraced"], wall["arm.telemetry"], wall["campaign.execute"], wall["arm.kernel_p2"]

	sp = tr.begin("campaign.report", root)
	js, err := trc.report.JSON()
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("campaign.merge", root)
	merged, err := mergeRoundTrip(trc.report)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	tr.end(root)

	// Correctness: every arm and the merged report reproduce the
	// reference digest; both telemetry arms count the same work.
	ref, stored := referenceDigest(w.name, seed, base.digest)
	res := &result{Metrics: map[string]metric{}}
	for _, ap := range all {
		res.Attempted += len(ap.ps.runs)
		res.Failed += ap.ps.failures(ap.name, ref)
	}
	if !bytes.Equal(merged, js) {
		fmt.Println("campaign.merge: merged shard report differs from the executed report")
		res.Failed++
	}
	if !maps.Equal(tel.counters, trc.counters) {
		fmt.Println("counters differ between the telemetry and traced arms")
		res.Failed++
	}
	res.Correct = res.Failed == 0

	put := func(name, unit string, v float64) { res.Metrics[name] = metric{v, unit} }
	for k, v := range layerCounters(trc.counters) {
		put(k, countUnit(k), v)
	}
	profile := mergeProfiles(profiles)
	shares := profile.layerShares()
	for _, l := range cpuLayers {
		put(l+".cpu_frac", "frac", shares[l])
	}
	self := tr.selfTimes()
	runs := float64(len(p.specs))
	workers := float64(p.workers)
	execWall := trc.wall.Seconds() * workers
	fold := execWall - tr.total("campaign.run")
	put("sim.kernel_p2_wall_ratio", "ratio", baseWall/kernWall)
	put("workload.generate_s", "s", tr.total("workload.generate"))
	put("experiments.build_s", "s", self["experiments.build"])
	put("experiments.run_s", "s", self["experiments.run"])
	put("campaign.fold_s", "s", fold)
	put("campaign.worker_idle_frac", "frac", fold/execWall)
	put("campaign.report_s", "s", tr.total("campaign.report"))
	put("campaign.merge_s", "s", tr.total("campaign.merge"))
	put("obs.telemetry_overhead_frac", "frac", telWall/baseWall-1)
	put("obs.trace_overhead_frac", "frac", trcWall/baseWall-1)
	put("runtime.alloc_bytes_per_run", "B", (rt1.alloc-rt0.alloc)/runs)
	put("runtime.gc_cycles", "count", rt1.gcCycles-rt0.gcCycles)
	gcCPU := 0.0
	if base.cpu > 0 {
		gcCPU = (rt1.gcCPU - rt0.gcCPU) / base.cpu
	}
	put("runtime.gc_cpu_frac", "frac", gcCPU)

	flat, cum := profile.topFuncs(40)
	path, err := writeTrace(traceFile{
		Workload:  w.name,
		Seed:      seed,
		Digest:    ref,
		Stored:    stored,
		Workers:   p.workers,
		Runs:      len(p.specs),
		ArmWall:   wall,
		Spans:     tr.spans,
		SelfTime:  self,
		Counters:  trc.counters,
		CPUShares: shares,
		Samples:   profile.total(),
		TopFlat:   flat,
		TopCum:    cum,
	})
	if err != nil {
		return nil, err
	}
	fmt.Printf("workload %s seed %d (traced): %d runs per arm on %d workers; report digest %s (%s)\n",
		w.name, seed, len(p.specs), p.workers, ref, stored)
	fmt.Printf("tracing overhead: runs_per_s untraced %.4g, telemetry %.4g, traced %.4g\n",
		runs/baseWall, runs/telWall, runs/trcWall)
	fmt.Printf("cpu_frac from %.0f profile samples; spans and counters written to %s\n", profile.total(), path)
	return res, nil
}

// traceFile is the traced run's output file.
type traceFile struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Digest    string             `json:"digest"`
	Stored    string             `json:"digest_check"`
	Workers   int                `json:"workers"`
	Runs      int                `json:"runs"`
	ArmWall   map[string]float64 `json:"arm_wall_s"`
	Spans     []span             `json:"spans"`
	SelfTime  map[string]float64 `json:"self_time_s"`
	Counters  map[string]uint64  `json:"counters"`
	CPUShares map[string]float64 `json:"cpu_frac"`
	Samples   float64            `json:"profile_samples"`
	TopFlat   []funcShare        `json:"top_flat"`
	TopCum    []funcShare        `json:"top_cum"`
}

func writeTrace(tf traceFile) (string, error) {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.json", tf.Workload, tf.Seed))
	data, err := json.MarshalIndent(tf, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

// mergeRoundTrip writes the report as a shard result file, reads it
// back and merges it, returning the merged report's JSON.
func mergeRoundTrip(rep *campaign.Report) ([]byte, error) {
	dir, err := os.MkdirTemp("", "jtpbench-merge")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "shard.json")
	if err := campaign.WriteShardFile(path, rep); err != nil {
		return nil, err
	}
	f, err := campaign.ReadShardFile(path)
	if err != nil {
		return nil, err
	}
	merged, err := campaign.MergeReports(f)
	if err != nil {
		return nil, err
	}
	return merged.JSON()
}

// runtimeStats is a point-in-time read of the Go runtime's counters.
type runtimeStats struct {
	alloc, gcCycles, gcCPU float64
}

func readRuntime() runtimeStats {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeStats{
		alloc:    float64(s[0].Value.Uint64()),
		gcCycles: float64(s[1].Value.Uint64()),
		gcCPU:    s[2].Value.Float64(),
	}
}
