package main

import (
	"fmt"
	"math"

	"github.com/javelen/jtp/internal/campaign"
	"github.com/javelen/jtp/internal/experiments"
	"github.com/javelen/jtp/internal/metrics"
	"github.com/javelen/jtp/internal/workload"
)

// size selects a workload's scale: full is what the benchmark measures,
// small is the reduced shape the package tests pin exactly.
type size int

const (
	full size = iota
	small
)

// workloadDef is one named benchmark workload.
type workloadDef struct {
	name string
	// setupPasses is how many times the untraced run assembles the
	// whole run list for setup_s after each campaign pass.
	setupPasses int
	// plan generates the workload's run list from the benchmark seed.
	plan func(seed int64, sz size) (*plan, error)
}

// plan is a workload's concrete inputs: the campaign matrix and one
// fully specified scenario per run index, plus the worker count.
type plan struct {
	matrix    campaign.Matrix
	specs     []campaign.RunSpec
	scenarios []experiments.Scenario
	workers   int
}

var workloads = []workloadDef{
	{name: "chain_sweep", setupPasses: 10, plan: chainSweep},
	{name: "mesh_churn", setupPasses: 5, plan: meshChurn},
	{name: "mobile_huge", setupPasses: 1, plan: mobileHuge},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// mix derives a run seed from the benchmark seed and a run coordinate
// (splitmix64 finalizer). Seeds never depend on the protocol, so every
// protocol of a cell sees the same network and traffic.
func mix(seed int64, a, b int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(a)*0xbf58476d1ce4e5b9 + uint64(b)*0x94d049bb133111eb
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 1) // non-negative
}

// newPlan expands m and assembles one scenario per run with mk.
func newPlan(m campaign.Matrix, workers int, mk func(spec campaign.RunSpec) (experiments.Scenario, error)) (*plan, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	p := &plan{matrix: m, specs: m.Expand(), workers: workers}
	p.scenarios = make([]experiments.Scenario, len(p.specs))
	for _, spec := range p.specs {
		sc, err := mk(spec)
		if err != nil {
			return nil, fmt.Errorf("%s: run %d: %w", m.Name, spec.Index, err)
		}
		p.scenarios[spec.Index] = sc
	}
	return p, nil
}

// chainSweep is the Fig 9 campaign at paper scale: two competing flows
// across chains of 2-10 nodes, jtp/atp/tcp, 20 seeds of 2500 virtual
// seconds after a 900 s warm-up, on 2 campaign workers.
func chainSweep(seed int64, sz size) (*plan, error) {
	sizes, runs, secs, warm := []int{2, 4, 6, 8, 10}, 20, 2500.0, 900.0
	if sz == small {
		sizes, runs, secs, warm = []int{2, 6, 10}, 2, 400, 60
	}
	m := campaign.Matrix{
		Name: "chain_sweep",
		Axes: []campaign.Axis{
			{Name: "proto", Values: campaign.Strings("jtp", "atp", "tcp")},
			{Name: "netSize", Values: campaign.Ints(sizes...)},
		},
		Runs: runs,
		SeedFn: func(cell campaign.Cell, _, run int) int64 {
			return mix(seed, cell.Int("netSize"), run)
		},
	}
	return newPlan(m, 2, func(spec campaign.RunSpec) (experiments.Scenario, error) {
		n := spec.Cell.Int("netSize")
		j1 := float64(spec.Seed%97) / 97 * 100
		j2 := float64(spec.Seed%89) / 89 * 100
		return experiments.Scenario{
			Name:    "chain_sweep",
			Proto:   experiments.Protocol(spec.Cell.String("proto")),
			Topo:    experiments.Linear,
			Nodes:   n,
			Seconds: secs,
			Seed:    spec.Seed,
			Flows: []experiments.FlowSpec{
				{Src: 0, Dst: n - 1, StartAt: warm + j1},
				{Src: n - 1, Dst: 0, StartAt: warm + j2},
			},
		}, nil
	})
}

// meshSpec is mesh_churn's generator input: a 96-node random geometric
// graph with staggered pair flows, relay churn and two finite-budget
// energy classes sized so some nodes run out within the run.
func meshSpec(sz size) *workload.Spec {
	s := &workload.Spec{
		Name:    "mesh_churn",
		Family:  workload.RGG,
		Nodes:   96,
		Traffic: workload.Staggered,
		Flows:   4,
		Stagger: 15,
		Seconds: 150,
		EnergyClasses: []workload.EnergyClass{
			{Weight: 1, BudgetJ: 0.005},
			{Weight: 3, BudgetJ: 0.05},
		},
		Churn: &workload.ChurnSpec{Failures: 12, MeanDowntime: 40},
	}
	if sz == small {
		s.Nodes, s.Flows, s.Seconds, s.Churn.Failures = 32, 2, 150, 4
	}
	s.ApplyDefaults()
	return s
}

// meshChurn crosses three generated meshes with mobility at the Fig 11
// speeds and jtp/jnc/tcp, on one worker. The generated network depends
// on the run number only, so every (protocol, speed) cell of a run sees
// the same layout, budgets and churn schedule.
func meshChurn(seed int64, sz size) (*plan, error) {
	spec := meshSpec(sz)
	runs := 10
	if sz == small {
		runs = 1
	}
	gens := make([]*workload.Generated, runs)
	for r := range gens {
		g, err := workload.Generate(spec, mix(seed, spec.Nodes, r))
		if err != nil {
			return nil, err
		}
		gens[r] = g
	}
	m := campaign.Matrix{
		Name: "mesh_churn",
		Axes: []campaign.Axis{
			{Name: "proto", Values: campaign.Strings("jtp", "jnc", "tcp")},
			{Name: "speed", Values: campaign.Floats(1, 5)},
		},
		Runs:   runs,
		SeedFn: func(_ campaign.Cell, _, run int) int64 { return gens[run].Seed },
	}
	return newPlan(m, 1, func(rs campaign.RunSpec) (experiments.Scenario, error) {
		sc := experiments.FromWorkload(gens[rs.Run], experiments.Protocol(rs.Cell.String("proto")))
		sc.MobilitySpeed = rs.Cell.Float("speed")
		return sc, nil
	})
}

// mobileHuge is the 1k/10k/65,536-node mobile RGG tier: three
// random-endpoint JTP flows under random-waypoint motion at 5 m/s with
// on-demand routing, one run per size, on one worker.
func mobileHuge(seed int64, sz size) (*plan, error) {
	sizes := []int{1000, 10000, experiments.MaxNodes}
	if sz == small {
		sizes = []int{1000}
	}
	m := campaign.Matrix{
		Name: "mobile_huge",
		Axes: []campaign.Axis{
			{Name: "netSize", Values: campaign.Ints(sizes...)},
		},
		Runs: 1,
		SeedFn: func(cell campaign.Cell, _, run int) int64 {
			return mix(seed, cell.Int("netSize"), run)
		},
	}
	return newPlan(m, 1, func(spec campaign.RunSpec) (experiments.Scenario, error) {
		flows := make([]experiments.FlowSpec, 3)
		for i := range flows {
			flows[i] = experiments.FlowSpec{Src: -1, Dst: -1, StartAt: 5 + 10*float64(i)}
		}
		return experiments.Scenario{
			Name:            "mobile_huge",
			Proto:           experiments.JTP,
			Topo:            experiments.Random,
			Nodes:           spec.Cell.Int("netSize"),
			MobilitySpeed:   5,
			RoutingOnDemand: true,
			Seconds:         30,
			Seed:            spec.Seed,
			Flows:           flows,
		}, nil
	})
}

// sample is one run's campaign observables; the report digest covers
// all of them, the kernel event count and the drawn flow endpoints
// included, so runs that deliver nothing are still pinned.
func sample(rec *metrics.RunRecord) campaign.Sample {
	var endpoints, sent float64
	for _, f := range rec.Flows {
		endpoints += float64(f.Src)*65536 + float64(f.Dst)
		sent += float64(f.DataSent)
	}
	s := campaign.Sample{
		"flow_endpoints": endpoints,
		"data_sent":      sent,
		"energy_J":       rec.TotalEnergy,
		"energy_per_bit": rec.EnergyPerBit(),
		"goodput_bps":    rec.MeanGoodputBps(),
		"delivered_kB":   float64(rec.DeliveredBytes()) / 1e3,
		"source_rtx":     float64(rec.SourceRetransmissions()),
		"cache_hits":     float64(rec.CacheHits),
		"queue_drops":    float64(rec.QueueDrops),
		"retry_drops":    float64(rec.RetryDrops),
		"events":         float64(rec.Events),
	}
	if rec.EnergyBudgets != nil {
		s["budget_dead_nodes"] = float64(rec.BudgetDeadNodes)
	}
	return s
}

// checkRecord rejects a run record that breaks the simulator's basic
// accounting: no events, non-finite or negative energy, per-node energy
// not summing to the total, or a node spending past its budget.
func checkRecord(rec *metrics.RunRecord) error {
	if rec.Events == 0 {
		return fmt.Errorf("%s: no events fired", rec.Name)
	}
	if math.IsNaN(rec.TotalEnergy) || math.IsInf(rec.TotalEnergy, 0) || rec.TotalEnergy < 0 {
		return fmt.Errorf("%s: total energy %g", rec.Name, rec.TotalEnergy)
	}
	var sum float64
	for i, e := range rec.PerNodeEnergy {
		sum += e
		if i < len(rec.EnergyBudgets) && rec.EnergyBudgets[i] > 0 && e > rec.EnergyBudgets[i]*(1+1e-9) {
			return fmt.Errorf("%s: node %d spent %g J of a %g J budget", rec.Name, i, e, rec.EnergyBudgets[i])
		}
	}
	if math.Abs(sum-rec.TotalEnergy) > 1e-9*math.Max(1, rec.TotalEnergy) {
		return fmt.Errorf("%s: per-node energy %g != total %g", rec.Name, sum, rec.TotalEnergy)
	}
	for _, f := range rec.Flows {
		if f.UniqueDelivered > f.DataSent {
			return fmt.Errorf("%s: flow %d delivered %d of %d sent", rec.Name, f.Flow, f.UniqueDelivered, f.DataSent)
		}
	}
	return nil
}
