package experiments

import (
	"math"
	"strings"
	"testing"

	"github.com/javelen/jtp/internal/topology"
)

// TestScenarioValidationErrors pins the error paths fuzzing uncovered:
// malformed scenarios must return a descriptive error naming the bad
// field instead of panicking deep inside the substrate or silently
// producing an empty run.
func TestScenarioValidationErrors(t *testing.T) {
	base := func() Scenario {
		return Scenario{
			Name: "bad", Proto: JTP, Topo: Linear, Nodes: 4, Seconds: 100,
			Flows: []FlowSpec{{Src: 0, Dst: 3, StartAt: 10}},
		}
	}
	cases := []struct {
		name string
		mut  func(*Scenario)
		want string
	}{
		{"too few nodes", func(sc *Scenario) { sc.Nodes = 1 }, "nodes"},
		{"too many nodes", func(sc *Scenario) { sc.Nodes = MaxNodes + 1 }, "nodes: 65537 too large"},
		{"zero seconds", func(sc *Scenario) { sc.Seconds = 0 }, "seconds"},
		{"negative speed", func(sc *Scenario) { sc.MobilitySpeed = -1 }, "mobilitySpeed"},
		{"endpoint out of range", func(sc *Scenario) { sc.Flows[0].Dst = 9 }, "endpoints"},
		{"src equals dst", func(sc *Scenario) { sc.Flows[0].Dst = 0 }, "src == dst"},
		{"bad tolerance", func(sc *Scenario) { sc.Flows[0].LossTolerance = 1.5 }, "lossTolerance"},
		{"negative start", func(sc *Scenario) { sc.Flows[0].StartAt = -1 }, "startAt"},
		{"flow never runs", func(sc *Scenario) { sc.Flows[0].StartAt = 100 }, "startAt"},
		{"negative packets", func(sc *Scenario) { sc.Flows[0].TotalPackets = -1 }, "totalPackets"},
		{"budget length", func(sc *Scenario) { sc.EnergyBudgets = []float64{1, 2} }, "energyBudgets"},
		{"negative budget", func(sc *Scenario) { sc.EnergyBudgets = []float64{1, 1, -1, 1} }, "energyBudgets"},
		{"event node range", func(sc *Scenario) { sc.Events = []NodeEvent{{At: 5, Node: 7, Down: true}} }, "events"},
		{"negative event time", func(sc *Scenario) { sc.Events = []NodeEvent{{At: -5, Node: 1, Down: true}} }, "events"},
		// Non-finite and clock-overflowing values: unchecked, they run
		// silently empty (0 events, 0 J).
		{"NaN seconds", func(sc *Scenario) { sc.Seconds = math.NaN() }, "seconds: not a number"},
		{"infinite seconds", func(sc *Scenario) { sc.Seconds = math.Inf(1) }, "seconds: +Inf beyond the clock"},
		{"overflowing seconds", func(sc *Scenario) { sc.Seconds = 1e12 }, "seconds: 1e+12 beyond the clock"},
		{"NaN speed", func(sc *Scenario) { sc.MobilitySpeed = math.NaN() }, "mobilitySpeed: NaN"},
		{"infinite speed", func(sc *Scenario) { sc.MobilitySpeed = math.Inf(1) }, "mobilitySpeed: +Inf"},
		{"NaN start", func(sc *Scenario) { sc.Flows[0].StartAt = math.NaN() }, "startAt: not a number"},
		{"NaN stop", func(sc *Scenario) { sc.Flows[0].StopAt = math.NaN() }, "stopAt: not a number"},
		{"overflowing stop", func(sc *Scenario) { sc.Flows[0].StopAt = 1e300 }, "stopAt: 1e+300 beyond the clock"},
		{"NaN tolerance", func(sc *Scenario) { sc.Flows[0].LossTolerance = math.NaN() }, "lossTolerance NaN"},
		{"NaN budget", func(sc *Scenario) { sc.EnergyBudgets = []float64{1, math.NaN(), 1, 1} }, "energyBudgets[1]: NaN"},
		{"infinite budget", func(sc *Scenario) { sc.EnergyBudgets = []float64{1, 1, math.Inf(1), 1} }, "energyBudgets[2]: +Inf"},
		{"NaN event time", func(sc *Scenario) { sc.Events = []NodeEvent{{At: math.NaN(), Node: 1, Down: true}} }, "events[0]: at: not a number"},
		{"overflowing event time", func(sc *Scenario) { sc.Events = []NodeEvent{{At: 1e12, Node: 1, Down: true}} }, "events[0]: at: 1e+12"},
		{"non-finite explicit position", func(sc *Scenario) {
			sc.Explicit = topology.Linear(4, 80)
			sc.Explicit.Pos[2].Y = math.Inf(-1)
		}, "explicit position 2: (160, -Inf) not finite"},
		{"NaN explicit position", func(sc *Scenario) {
			sc.Explicit = topology.Linear(4, 80)
			sc.Explicit.Pos[1].X = math.NaN()
		}, "explicit position 1: (NaN, 0) not finite"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sc := base()
			c.mut(&sc)
			_, err := Run(sc)
			if err == nil {
				t.Fatal("Run accepted a malformed scenario")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
	// The base scenario itself must be fine.
	if _, err := Run(base()); err != nil {
		t.Fatalf("valid base scenario rejected: %v", err)
	}
}

// TestNodeCeiling pins the uint16 node-id ceiling at the scenario and
// batch entry points: 65,536 nodes is valid, one more is a descriptive
// error, never a network whose last node aliases node 0.
func TestNodeCeiling(t *testing.T) {
	sc := Scenario{
		Name: "max", Proto: JTP, Topo: Linear, Nodes: MaxNodes, Seconds: 100,
		Flows: []FlowSpec{{Src: 0, Dst: MaxNodes - 1, StartAt: 10}},
	}
	if err := sc.validate(); err != nil {
		t.Fatalf("%d nodes rejected: %v", MaxNodes, err)
	}
	if _, err := ParseBatchSpec([]byte(`{"nodes":[4,65536]}`)); err != nil {
		t.Fatalf("batch with %d nodes rejected: %v", MaxNodes, err)
	}
	_, err := ParseBatchSpec([]byte(`{"nodes":[4,65537]}`))
	if err == nil || !strings.Contains(err.Error(), "network size 65537 too large") {
		t.Fatalf("batch with 65537 nodes: %v", err)
	}
}

// TestWorkloadCellErrors: a workload whose generation fails inside a
// campaign cell surfaces a descriptive per-cell error, not a panic and
// not an empty report.
func TestWorkloadCellErrors(t *testing.T) {
	spec, err := ParseBatchSpec([]byte(`{
		"protocols": ["jtp"],
		"workloads": [{"family": "chain", "nodes": 4, "churn": {"failures": 3}}],
		"runs": 1, "seconds": 100
	}`))
	if err != nil {
		t.Fatalf("spec should parse (generation, not parsing, fails): %v", err)
	}
	rep, execErr := spec.Execute(t.Context(), 1, nil)
	if execErr != nil {
		t.Fatalf("Execute: %v", execErr)
	}
	if rep.Failures == 0 {
		t.Fatal("expected per-cell failures for impossible churn")
	}
	if got := rep.Err().Error(); !strings.Contains(got, "churn.failures") {
		t.Errorf("cell error %q does not name churn.failures", got)
	}
}
