package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"syscall"
	"time"

	"github.com/javelen/jtp/internal/campaign"
	"github.com/javelen/jtp/internal/experiments"
	"github.com/javelen/jtp/internal/metrics"
	"github.com/javelen/jtp/internal/obs"
)

// arm selects how a campaign pass executes its runs.
type arm int

const (
	// plain runs experiments.Run with telemetry off: the measured path.
	plain arm = iota
	// telemetry runs experiments.Run with the program's campaign
	// telemetry on (a pooled obs registry per run).
	telemetry
	// traced assembles and runs each scenario with spans around
	// BuildScenario and BuiltScenario.Run and an obs registry attached.
	traced
	// kernel runs experiments.Run on the 2-partition parallel kernel.
	kernel
)

// pass is one execution of a plan's whole run list.
type pass struct {
	report *campaign.Report
	digest string
	wall   time.Duration
	cpu    float64   // process user+sys CPU seconds over the pass
	events uint64    // simulated events fired, all runs
	runs   []float64 // per-run wall seconds, by run index
	// counters is the obs telemetry of every run folded with obs.Merge
	// (telemetry and traced arms only).
	counters map[string]uint64
	// spans are the traced arm's per-run spans, three per run index:
	// campaign.run, experiments.build, experiments.run.
	spans []span
}

// execute runs the plan once through campaign.Execute. Run errors
// (panics included) fold into the report as failures; only a campaign
// that cannot start returns an error.
func (p *plan) execute(a arm, tr *tracer) (*pass, error) {
	n := len(p.specs)
	res := &pass{runs: make([]float64, n)}
	events := make([]uint64, n)
	tel := make([]map[string]uint64, n)
	if a == traced {
		res.spans = make([]span, 3*n)
	}
	experiments.SetCampaignHooks(experiments.CampaignHooks{Telemetry: a == telemetry})
	defer experiments.SetCampaignHooks(experiments.CampaignHooks{})

	run := func(_ context.Context, spec campaign.RunSpec) (campaign.Sample, error) {
		sc := p.scenarios[spec.Index]
		if a == kernel {
			sc.KernelPartitions = 2
		}
		start := time.Now()
		var rec *metrics.RunRecord
		var err error
		if a == traced {
			rec, err = tracedRun(sc, tr, spec.Index, res.spans[3*spec.Index:3*spec.Index+3])
		} else {
			rec, err = experiments.Run(sc)
		}
		res.runs[spec.Index] = time.Since(start).Seconds()
		if err != nil {
			return nil, err
		}
		if err := checkRecord(rec); err != nil {
			return nil, err
		}
		events[spec.Index] = rec.Events
		tel[spec.Index] = rec.Telemetry
		return sample(rec), nil
	}

	cpu0 := cpuSeconds()
	start := time.Now()
	rep, err := campaign.Execute(context.Background(), p.matrix, campaign.Options{Workers: p.workers}, run)
	res.wall = time.Since(start)
	res.cpu = cpuSeconds() - cpu0
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.matrix.Name, err)
	}
	res.report = rep
	js, err := rep.JSON()
	if err != nil {
		return nil, fmt.Errorf("%s: report: %w", p.matrix.Name, err)
	}
	sum := sha256.Sum256(js)
	res.digest = hex.EncodeToString(sum[:])
	for i, e := range events {
		res.events += e
		if tel[i] != nil {
			if res.counters == nil {
				res.counters = map[string]uint64{}
			}
			obs.Merge(res.counters, tel[i])
		}
	}
	return res, nil
}

// failures returns how many of the pass's runs count as failed: all of
// them when the report digest differs from ref, else those that errored.
func (ps *pass) failures(label, ref string) int {
	if ps.digest != ref {
		fmt.Printf("%s: report digest %s, want %s\n", label, ps.digest, ref)
		return len(ps.runs)
	}
	if err := ps.report.Err(); err != nil {
		fmt.Printf("%s: %v\n", label, err)
	}
	return ps.report.Failures
}

// registries recycles the traced arm's per-run obs registries.
var registries = sync.Pool{New: func() any { return obs.New() }}

// tracedRun assembles and runs one scenario with an obs registry
// attached, recording the campaign.run span (trace id = run index) and
// its experiments.build and experiments.run children into out.
func tracedRun(sc experiments.Scenario, tr *tracer, idx int, out []span) (*metrics.RunRecord, error) {
	reg := registries.Get().(*obs.Registry)
	defer func() { reg.Reset(); registries.Put(reg) }()
	sc.Obs = reg

	t0 := tr.now()
	b, err := experiments.BuildScenario(sc, experiments.Hooks{})
	t1 := tr.now()
	var rec *metrics.RunRecord
	if err == nil {
		rec = b.Run()
	}
	t2 := tr.now()
	out[0] = span{Name: "campaign.run", Start: t0, End: t2, Run: idx}
	out[1] = span{Name: "experiments.build", Start: t0, End: t1, Run: idx}
	out[2] = span{Name: "experiments.run", Start: t1, End: t2, Run: idx}
	return rec, err
}

// setupPass assembles every run of a freshly generated plan with
// experiments.BuildScenario, without advancing virtual time, and
// returns the pass's wall seconds (generation included).
func setupPass(w workloadDef, seed int64, sz size) (float64, error) {
	start := time.Now()
	p, err := w.plan(seed, sz)
	if err != nil {
		return 0, err
	}
	for i, sc := range p.scenarios {
		if _, err := experiments.BuildScenario(sc, experiments.Hooks{}); err != nil {
			return 0, fmt.Errorf("%s: build run %d: %w", w.name, i, err)
		}
	}
	return time.Since(start).Seconds(), nil
}

// cpuSeconds returns the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// peakRSSMB returns the process's peak resident set size in MiB (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
