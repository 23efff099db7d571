package experiments

import (
	"github.com/javelen/jtp/internal/campaign"
	"github.com/javelen/jtp/internal/ijtp"
	"github.com/javelen/jtp/internal/metrics"
	"github.com/javelen/jtp/internal/packet"
)

// This file is the huge bench tier: 1k–65k-node mobile random geometric
// graphs, two orders of magnitude past the paper's 15-node mobility
// experiment. It exists to exercise the spatial-hash link-state
// substrate — O(V+E) snapshot memory, incremental row patches under
// mobility, on-demand routing views — at sizes where the pre-grid
// O(n²) rebuild path stopped being runnable at all. The 1k tier doubles
// as the before/after yardstick: it deliberately reuses the mobile
// tier's seed schedule and run shape so runs/sec is comparable against
// the same campaign executed on the quadratic substrate.

// HugeBenchConfig parameterizes the huge bench campaign.
type HugeBenchConfig struct {
	// Sizes are the network sizes (1000 and up).
	Sizes []int
	// Speeds are the node speeds in m/s.
	Speeds []float64
	// Flows is the number of random-endpoint flows per run.
	Flows int
	// Runs is the number of independent seeds per cell.
	Runs int
	// Seconds is the run length in virtual seconds.
	Seconds float64
	// Warmup is when flows start.
	Warmup float64
	// Protocols under test.
	Protocols []Protocol
	// Seed is the base seed.
	Seed int64
	// Par is the worker-pool size (0 = GOMAXPROCS).
	Par int
	// KernelPartitions runs every scenario on the parallel discrete-event
	// kernel with that many spatial partitions (0 = classic serial).
	// Results are byte-identical at every count; only wall-clock and the
	// kernel_* accounting differ.
	KernelPartitions int
	// LegacyBaseline reconstructs the historical serial engine for the
	// baseline arm the `bench -preset huge` speedup gate measures
	// against: eager per-node cache-RNG construction
	// (ijtp.Config.EagerCacheRNG) and full-adjacency
	// endpoint/connectivity BFS (Scenario.LegacyBaseline). Results are
	// identical either way.
	LegacyBaseline bool
}

// MaxNodes is the hard network-size ceiling: node ids travel in a
// 2-byte wire field (packet.NodeID is uint16), so 65536 nodes is the
// largest addressable network. The "100k" tier is therefore capped here,
// and Scenario and batch validation reject anything larger.
const MaxNodes = packet.MaxNodes

// HugeBenchDefaults returns the huge bench preset: a 1k-node mobile RGG
// always, a 10k-node one at scale ≥ 0.5, and the 65536-node ceiling
// tier when full is set. One protocol, one seed per cell — the tier
// measures substrate throughput, not protocol behavior.
func HugeBenchDefaults(scale float64, full bool) HugeBenchConfig {
	if scale <= 0 || scale > 1 {
		scale = 1
	}
	sizes := []int{1000}
	if scale >= 0.5 {
		sizes = append(sizes, 10000)
	}
	if full {
		sizes = append(sizes, MaxNodes)
	}
	return HugeBenchConfig{
		Sizes:     sizes,
		Speeds:    []float64{5},
		Flows:     3,
		Runs:      1,
		Seconds:   30,
		Warmup:    5,
		Protocols: []Protocol{JTP},
		Seed:      717,
	}
}

// hugeBenchMatrix declares the (protocol × size × speed) sweep with the
// mobile tier's seed convention, keeping the 1k cell seed-identical to
// the pre-grid baseline measurement.
func hugeBenchMatrix(cfg HugeBenchConfig) campaign.Matrix {
	return campaign.Matrix{
		Name: "huge-bench",
		Axes: []campaign.Axis{
			{Name: "proto", Values: protocolValues(cfg.Protocols)},
			{Name: "netSize", Values: campaign.Ints(cfg.Sizes...)},
			{Name: "speed", Values: campaign.Floats(cfg.Speeds...)},
		},
		Runs: cfg.Runs,
		SeedFn: func(cell campaign.Cell, _, run int) int64 {
			return cfg.Seed + int64(run)*7919 + int64(cell.Int("netSize"))
		},
	}
}

// HugeCampaignBench executes the huge campaign and accounts kernel
// events (the `jtpsim bench -preset huge` body).
func HugeCampaignBench(cfg HugeBenchConfig) CampaignBenchResult {
	const obsEvents = "bench_events"
	rep := mustExecute(hugeBenchMatrix(cfg), cfg.Par, func(spec campaign.RunSpec) campaign.Sample {
		rec := runHugeBenchOnce(Protocol(spec.Cell.String("proto")),
			spec.Cell.Int("netSize"), spec.Cell.Float("speed"), spec.Seed, cfg)
		return telemetrySample(campaign.Sample{
			obsEnergyPerBit: rec.EnergyPerBit(),
			obsGoodputBps:   rec.MeanGoodputBps(),
			obsEvents:       float64(rec.Events),
		}, rec)
	})
	res := CampaignBenchResult{Runs: rep.Runs, Cells: len(rep.Cells)}
	for _, c := range rep.Cells {
		r := c.Running(obsEvents)
		res.Events += uint64(r.Sum())
	}
	res.foldCellTelemetry(rep)
	return res
}

// runHugeBenchOnce runs one (protocol, size, speed, seed) cell: a
// connected RGG with random-endpoint flows under random-waypoint
// motion, with on-demand routing — the only configuration difference
// from the mobile tier, and the one that keeps per-router view memory
// proportional to the nodes that actually carry traffic.
func runHugeBenchOnce(proto Protocol, n int, speed float64, seed int64, cfg HugeBenchConfig) *metrics.RunRecord {
	// Flows keep the mobile tier's 10 s stagger when the run is long
	// enough (the 1k cell stays shape-identical to the historical
	// yardstick); shorter runs compress the stagger so every flow still
	// starts before the end.
	stagger := 10.0
	if last := cfg.Warmup + float64(cfg.Flows-1)*stagger; last >= cfg.Seconds && cfg.Flows > 0 {
		stagger = (cfg.Seconds - cfg.Warmup) / float64(cfg.Flows)
	}
	flows := make([]FlowSpec, cfg.Flows)
	for i := range flows {
		flows[i] = FlowSpec{Src: -1, Dst: -1, StartAt: cfg.Warmup + float64(i)*stagger}
	}
	sc := Scenario{
		Name:             "huge-bench",
		Proto:            proto,
		Topo:             Random,
		Nodes:            n,
		MobilitySpeed:    speed,
		RoutingOnDemand:  true,
		Seconds:          cfg.Seconds,
		Seed:             seed,
		Flows:            flows,
		KernelPartitions: cfg.KernelPartitions,
		LegacyBaseline:   cfg.LegacyBaseline,
	}
	if cfg.LegacyBaseline {
		sc.IJTPTune = func(c *ijtp.Config) { c.EagerCacheRNG = true }
	}
	return must(Run(sc))
}
