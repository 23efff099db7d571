package experiments

import (
	"runtime"
	"testing"
)

// maxRetainedBytesPerNode bounds the heap a built, idle mobile scenario
// retains per node. Measured at 1,114 B/node for the 4,096-node scenario
// below (linux/amd64, Go 1.24: node, MAC, router and iJTP plugin
// structs, link-state and grid indexes, mobility state); the bound adds
// 25%. Eager per-node transmit rings, link maps, cache and endpoint maps
// measured 1,786 B/node.
const maxRetainedBytesPerNode = 1400

// TestScenarioFootprintPerNode guards the per-node cost of a built
// scenario in the shape of the benchmark's 65,536-node tier — random
// field, random-waypoint mobility, on-demand routing, three random JTP
// flows — at 4,096 nodes: state a node needs only once it carries
// traffic must wait for first use.
func TestScenarioFootprintPerNode(t *testing.T) {
	const n = 4096
	flows := make([]FlowSpec, 3)
	for i := range flows {
		flows[i] = FlowSpec{Src: -1, Dst: -1, StartAt: 5 + 10*float64(i)}
	}
	sc := Scenario{
		Name: "footprint", Proto: JTP, Topo: Random, Nodes: n,
		MobilitySpeed: 5, RoutingOnDemand: true, Seconds: 30, Seed: 12345, Flows: flows,
	}
	// Two collections empty the engine pool, so the engine is counted too.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	b, err := BuildScenario(sc, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(b)
	perNode := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / n
	t.Logf("retained %.0f B/node, %.2f heap objects/node", perNode,
		(float64(after.HeapObjects)-float64(before.HeapObjects))/n)
	if perNode > maxRetainedBytesPerNode {
		t.Fatalf("built scenario retains %.0f B/node, bound %d", perNode, maxRetainedBytesPerNode)
	}
}
