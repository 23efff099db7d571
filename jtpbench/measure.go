package main

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"time"
)

// minTailSample is the smallest per-run sample whose tail percentile
// (ten runs beyond it) is at least p90. Smaller samples report the
// median over passes of each pass's slowest run instead, so a
// workload's tail never changes meaning with the number of passes that
// fit in the measurement time.
const minTailSample = 100

// measure is the untraced run: it executes the whole campaign again
// and again for the given seconds (at least once), and after each pass
// times setupPasses assemblies of the run list for setup_s, so both
// sample the same stretch of machine time. It reports medians.
func measure(w workloadDef, seed int64, seconds float64) (*result, error) {
	p, err := w.plan(seed, full)
	if err != nil {
		return nil, err
	}
	var passes []*pass
	var setups []float64
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for len(passes) == 0 || time.Now().Before(deadline) {
		// Every pass starts from a collected heap, so neither garbage nor
		// the heap goal of the previous pass carries into its time or into
		// peak RSS.
		runtime.GC()
		ps, err := p.execute(plain, nil)
		if err != nil {
			return nil, err
		}
		passes = append(passes, ps)
		runtime.GC()
		for range w.setupPasses {
			s, err := setupPass(w, seed, full)
			if err != nil {
				return nil, err
			}
			setups = append(setups, s)
		}
	}

	ref, stored := referenceDigest(w.name, seed, passes[0].digest)
	res := &result{Metrics: map[string]metric{}}
	var rps, eps, cpr, walls, slowest []float64
	for i, ps := range passes {
		n := len(ps.runs)
		res.Attempted += n
		res.Failed += ps.failures(fmt.Sprintf("pass %d", i), ref)
		rps = append(rps, float64(n)/ps.wall.Seconds())
		eps = append(eps, float64(ps.events)/ps.wall.Seconds())
		cpr = append(cpr, ps.cpu/float64(n))
		walls = append(walls, ps.runs...)
		slowest = append(slowest, slices.Max(ps.runs))
	}
	res.Correct = res.Failed == 0
	tail, pct := tailOf(walls, slowest)
	res.Metrics["runs_per_s"] = metric{median(rps), "1/s"}
	res.Metrics["sim_events_per_s"] = metric{median(eps), "1/s"}
	res.Metrics["cpu_s_per_run"] = metric{median(cpr), "s"}
	res.Metrics["run_wall_s_p50"] = metric{median(walls), "s"}
	res.Metrics["run_wall_s_tail"] = metric{tail, "s"}
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}

	fmt.Printf("workload %s seed %d: %d passes of %d runs on %d workers, %d events per pass, %d setup passes\n",
		w.name, seed, len(passes), len(p.specs), p.workers, passes[0].events, len(setups))
	fmt.Printf("report digest %s (%s)\n", ref, stored)
	if pct > 0 {
		fmt.Printf("run_wall_s_tail is p%.2f of %d runs\n", pct, len(walls))
	} else {
		fmt.Printf("run_wall_s_tail is the median slowest run of %d passes (%d runs: too few for a p90 with 10 beyond)\n", len(passes), len(walls))
	}
	fmt.Printf("failed_run_frac %g (%d of %d runs)\n", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	return res, nil
}

// median returns the middle value (mean of the two middle values for
// an even count).
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailOf returns the highest percentile of v with at least ten values
// beyond it, and that percentile. Below minTailSample values it returns
// the median of slowest (each pass's slowest run) and percentile 0.
func tailOf(v, slowest []float64) (float64, float64) {
	n := len(v)
	if n < minTailSample {
		return median(slowest), 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[n-11], 100 * float64(n-10) / float64(n)
}
