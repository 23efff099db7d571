package node

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/javelen/jtp/internal/channel"
	"github.com/javelen/jtp/internal/energy"
	"github.com/javelen/jtp/internal/geom"
	"github.com/javelen/jtp/internal/mac"
	"github.com/javelen/jtp/internal/mobility"
	"github.com/javelen/jtp/internal/obs"
	"github.com/javelen/jtp/internal/packet"
	"github.com/javelen/jtp/internal/routing"
	"github.com/javelen/jtp/internal/sim"
	"github.com/javelen/jtp/internal/topology"
)

// bruteDir reimplements the Linked oracle from first principles —
// positions, squared distances, failure and budget state — with no
// caching whatsoever. The epoch snapshot must agree with it exactly, at
// every instant, across topology families, mobility, failures and
// battery deaths.
type bruteDir struct{ nw *Network }

func (d bruteDir) N() int { return d.nw.N() }

func (d bruteDir) Linked(a, b packet.NodeID) bool {
	nw := d.nw
	if a == b || nw.Down(a) || nw.Down(b) || nw.BudgetExhausted(a) || nw.BudgetExhausted(b) {
		return false
	}
	tp := nw.Topology()
	d2 := tp.Position(a).Dist2(tp.Position(b))
	rng := nw.Channel().Range()
	return d2 <= rng*rng
}

// checkAgainstBrute compares the network's cached substrate — Linked,
// Neighbors, and every router's freshly adopted view — against the
// brute-force oracle. It returns how many BFS runs the routers' refresh
// sweep cost, all inside one link-state version: from the third on, the
// shared cache serves them from its per-version adjacency memo.
func checkAgainstBrute(t *testing.T, tag string, eng *sim.Engine, nw *Network) uint64 {
	t.Helper()
	brute := bruteDir{nw}
	n := nw.N()
	for i := 0; i < n; i++ {
		a := packet.NodeID(i)
		var want []packet.NodeID
		for j := 0; j < n; j++ {
			b := packet.NodeID(j)
			bw := brute.Linked(a, b)
			if got := nw.Linked(a, b); got != bw {
				t.Fatalf("%s: Linked(%v,%v)=%v, brute force says %v", tag, a, b, got, bw)
			}
			if bw {
				want = append(want, b)
			}
		}
		got := nw.Neighbors(a)
		if len(got) != len(want) {
			t.Fatalf("%s: Neighbors(%v)=%v, want %v", tag, a, got, want)
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("%s: Neighbors(%v)=%v, want %v", tag, a, got, want)
			}
		}
	}
	// Every router refreshes now (epoch-cached path) and must match an
	// uncached reference BFS over the brute-force oracle.
	ver, computes := nw.Version(), nw.Views().Computes()
	for i := 0; i < n; i++ {
		src := packet.NodeID(i)
		r := nw.Node(src).Router
		r.Refresh()
		ref := routing.New(eng, src, brute, routing.Config{})
		ref.Refresh()
		for j := 0; j < n; j++ {
			dst := packet.NodeID(j)
			gh, wh := r.HopsTo(dst), ref.HopsTo(dst)
			gn, gok := r.NextHop(dst)
			wn, wok := ref.NextHop(dst)
			if gh != wh || gok != wok || (gok && gn != wn) {
				t.Fatalf("%s: src %v dst %v: cached hops=%d next=%v,%v; uncached hops=%d next=%v,%v",
					tag, src, dst, gh, gn, gok, wh, wn, wok)
			}
		}
	}
	if v := nw.Version(); v != ver {
		t.Fatalf("%s: link-state version moved %d -> %d during the refresh sweep", tag, ver, v)
	}
	return nw.Views().Computes() - computes
}

// TestEpochCachedViewsMatchUncachedBFS is the seeded property test of
// the epoch substrate: across topology families and mobility seeds —
// with node failures, draining energy budgets and meter resets thrown
// in — the cached adjacency and the shared view cache must be
// element-identical to brute-force recomputation. Every liveness change
// moves the version, so the refresh sweep after it runs one BFS per
// router in a single fresh version: the adjacency memo is engaged
// across each kind of change.
func TestEpochCachedViewsMatchUncachedBFS(t *testing.T) {
	families := []struct {
		name  string
		build func(seed int64) *topology.Topology
	}{
		{"chain", func(int64) *topology.Topology { return topology.Linear(12, 80) }},
		{"grid", func(int64) *topology.Topology { return topology.GridN(16, 80) }},
		{"star", func(int64) *topology.Topology { return topology.Star(10, 90) }},
		{"rgg", func(seed int64) *topology.Topology {
			tp, ok := topology.Random(20, 100, rand.New(rand.NewSource(seed)), 200)
			if !ok {
				panic("rgg generation failed")
			}
			return tp
		}},
	}
	for _, fam := range families {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fam.name, func(t *testing.T) {
				eng := sim.NewEngine(seed)
				tp := fam.build(seed)
				n := tp.N()
				budgets := make([]float64, n)
				budgets[1] = 0.004 // dies once charged past the headroom
				nw := New(eng, Config{
					Topo:    tp,
					Channel: channel.Defaults(),
					MAC:     mac.Defaults(),
					Routing: routing.Defaults(),
					Energy:  energy.JAVeLEN(),
					Budgets: budgets,
				})
				mob := mobility.New(eng, tp, tp.Field, mobility.Defaults(5))
				nw.Start()
				mob.Start()
				checkAgainstBrute(t, fam.name+"/start", eng, nw)
				for step := 0; step < 5; step++ {
					eng.RunFor(700 * sim.Millisecond)
					liveness := true
					switch step {
					case 1:
						nw.SetDown(packet.NodeID(n-1), true)
					case 2:
						// Drain node 1's battery mid-epoch: the views
						// must drop it at the very next refresh.
						nw.Node(1).Meter.ChargeTx(1.0)
					case 3:
						nw.SetDown(packet.NodeID(n-1), false)
					case 4:
						// End of warm-up: node 1's battery revives.
						nw.ResetMeters()
					default:
						liveness = false
					}
					if bfs := checkAgainstBrute(t, fam.name+"/step", eng, nw); liveness && bfs < uint64(n) {
						t.Fatalf("step %d: %d BFS runs in the version after a liveness change, want one per router (%d)", step, bfs, n)
					}
				}
			})
		}
	}
}

// TestAllocsRouterRefreshEpochCached pins the steady-state cost of a
// router refresh within an unchanged link-state epoch: a version check,
// a cache hit, and two buffer copies — zero allocations.
func TestAllocsRouterRefreshEpochCached(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := New(eng, Config{
		Topo:    topology.GridN(49, 80),
		Channel: channel.Defaults(),
		MAC:     mac.Defaults(),
		Routing: routing.Defaults(),
		Energy:  energy.JAVeLEN(),
	})
	nw.Start()
	eng.RunFor(2 * sim.Second) // every router refreshed at least once
	r := nw.Node(10).Router
	r.Refresh()
	r.Refresh() // warm both double-buffered views at full size
	if allocs := testing.AllocsPerRun(200, r.Refresh); allocs != 0 {
		t.Fatalf("Router.Refresh within an unchanged epoch allocates %.1f/op, want 0", allocs)
	}
}

// TestAllocsRouterRefreshObserved repeats the epoch-cached refresh guard
// with telemetry attached to the whole network (MAC bundles via
// Network.Observe plus the shared-cache fill accounting): the refresh
// path must stay allocation-free with counters live.
func TestAllocsRouterRefreshObserved(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := New(eng, Config{
		Topo:    topology.GridN(49, 80),
		Channel: channel.Defaults(),
		MAC:     mac.Defaults(),
		Routing: routing.Defaults(),
		Energy:  energy.JAVeLEN(),
	})
	nw.Observe(obs.New())
	nw.Start()
	eng.RunFor(2 * sim.Second)
	r := nw.Node(10).Router
	r.Refresh()
	r.Refresh()
	if allocs := testing.AllocsPerRun(200, r.Refresh); allocs != 0 {
		t.Fatalf("observed Router.Refresh allocates %.1f/op, want 0", allocs)
	}
}

// TestAllocsLinkPatchWithinCell pins the steady-state incremental patch:
// a node drifting within its grid cell, neighbor set unchanged, costs a
// grid key compare, a candidate gather, a sort and a quality refresh in
// reused buffers — zero allocations per move+query cycle.
func TestAllocsLinkPatchWithinCell(t *testing.T) {
	eng := sim.NewEngine(1)
	tp := topology.GridN(64, 80)
	nw := New(eng, Config{
		Topo:    tp,
		Channel: channel.Defaults(),
		MAC:     mac.Defaults(),
		Routing: routing.Defaults(),
		Energy:  energy.JAVeLEN(),
	})
	id := packet.NodeID(17)
	base := tp.Position(id)
	step := 0
	move := func() {
		step++
		// ≤0.5 m jiggle on an 80 m lattice inside 100 m cells: same cell,
		// same neighbor set, every incident quality refreshed.
		d := 0.25 * float64(step%3)
		tp.SetPosition(id, geom.Point{X: base.X + d, Y: base.Y + d})
		nw.Version()
	}
	nw.Version() // build the snapshot
	move()       // warm delta buffers and scratch
	if allocs := testing.AllocsPerRun(200, move); allocs != 0 {
		t.Fatalf("within-cell patch allocates %.1f/op, want 0", allocs)
	}
}

// TestPatchedSnapshotQualityMatchesRebuild drives mobility through the
// incremental patch path and pins LinkQuality for every ordered pair
// bit-exact against a brute-force oracle computed here from positions
// alone: channel.Quality(math.Hypot(dx, dy), range) when the pair is in
// range and both nodes are alive, else 0. The walk mixes random-waypoint
// steps (partial and whole-network folds), hand-made partial moves that
// add and remove edges, SetDown flips and a battery death, and asserts
// a→b and b→a agree. The patched neighbor rows are also pinned against a
// second network built fresh at the same positions (whose snapshot can
// only come from a full rebuild).
func TestPatchedSnapshotQualityMatchesRebuild(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		eng := sim.NewEngine(seed)
		tp, ok := topology.Random(30, 100, rand.New(rand.NewSource(seed)), 200)
		if !ok {
			t.Fatal("rgg generation failed")
		}
		n := tp.N()
		budgets := make([]float64, n)
		budgets[2] = 0.004 // dies once charged past the headroom
		ch := channel.Defaults()
		nw := New(eng, Config{
			Topo:    tp,
			Channel: ch,
			MAC:     mac.Defaults(),
			Routing: routing.Defaults(),
			Energy:  energy.JAVeLEN(),
			Budgets: budgets,
		})
		reg := obs.New()
		nw.Observe(reg)
		mob := mobility.New(eng, tp, tp.Field, mobility.Defaults(5))
		nw.Start()
		mob.Start()
		down := make([]bool, n)
		dead := make([]bool, n)
		alive := func(i int) bool { return !down[i] && !dead[i] }
		rng := ch.Range
		for step := 0; step < 8; step++ {
			eng.RunFor(500 * sim.Millisecond)
			switch step {
			case 1:
				nw.SetDown(packet.NodeID(n-1), true)
				down[n-1] = true
			case 2:
				// Hand-made partial batch: one node jumps far away (drops
				// every edge), one lands on another (gains its edges).
				far := tp.Position(0)
				tp.SetPosition(0, geom.Point{X: far.X + 1000, Y: far.Y})
				tp.SetPosition(3, tp.Position(4))
			case 3:
				nw.Node(2).Meter.ChargeTx(1.0)
				dead[2] = true
			case 4:
				nw.SetDown(packet.NodeID(n-1), false)
				down[n-1] = false
			case 5:
				tp.SetPosition(0, tp.Position(5)) // back into the field
			}
			nw.Version() // bring the snapshot current via the patch path
			if got := nw.BudgetExhausted(2); got != dead[2] {
				t.Fatalf("seed %d step %d: node 2 exhausted=%v, want %v", seed, step, got, dead[2])
			}
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					a, b := packet.NodeID(i), packet.NodeID(j)
					dx := tp.Pos[i].X - tp.Pos[j].X
					dy := tp.Pos[i].Y - tp.Pos[j].Y
					want := 0.0
					if i != j && alive(i) && alive(j) && dx*dx+dy*dy <= rng*rng {
						want = channel.Quality(math.Hypot(dx, dy), rng)
					}
					got := nw.LinkQuality(a, b)
					if got != want {
						t.Fatalf("seed %d step %d: LinkQuality(%v,%v)=%v, oracle %v",
							seed, step, a, b, got, want)
					}
					if back := nw.LinkQuality(b, a); back != got {
						t.Fatalf("seed %d step %d: LinkQuality(%v,%v)=%v but (%v,%v)=%v",
							seed, step, a, b, got, b, a, back)
					}
				}
			}
			fresh := New(sim.NewEngine(1), Config{
				Topo:    tp.Clone(),
				Channel: ch,
				MAC:     mac.Defaults(),
				Routing: routing.Defaults(),
				Energy:  energy.JAVeLEN(),
			})
			fresh.ensureSnap()
			for i := 0; i < n; i++ {
				if got, want := nw.snap.row(packet.NodeID(i)), fresh.snap.row(packet.NodeID(i)); !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: patched row %d = %v, rebuilt %v", seed, step, i, got, want)
				}
			}
		}
		if snap := reg.Snapshot(); snap["linkstate_patch_epochs"] == 0 || snap["linkstate_full_rebuilds"] != 1 {
			t.Fatalf("seed %d: link-state instruments %v, want patch epochs and exactly one rebuild", seed, snap)
		}
	}
}

// TestLinkVersionBumpsOnlyOnNeighborChange pins the spurious-BFS fix:
// a mobility batch whose moves keep every neighbor set identical must
// not advance the link-state version (memoized views stay valid), while
// a batch that changes some adjacency must. The patch instruments
// (linkstate_rows_patched / linkstate_patch_epochs) account both.
func TestLinkVersionBumpsOnlyOnNeighborChange(t *testing.T) {
	eng := sim.NewEngine(1)
	tp := topology.GridN(16, 80)
	nw := New(eng, Config{
		Topo:    tp,
		Channel: channel.Defaults(),
		MAC:     mac.Defaults(),
		Routing: routing.Defaults(),
		Energy:  energy.JAVeLEN(),
	})
	reg := obs.New()
	nw.Observe(reg)
	v0 := nw.Version()

	// Within-range drift: three nodes jiggle by a meter. 80 m lattice,
	// 100 m range — no adjacency can flip.
	for _, i := range []int{3, 7, 11} {
		p := tp.Position(packet.NodeID(i))
		tp.SetPosition(packet.NodeID(i), geom.Point{X: p.X + 1, Y: p.Y})
	}
	if v := nw.Version(); v != v0 {
		t.Fatalf("version %d -> %d on a neighbor-preserving batch, want unchanged", v0, v)
	}
	snap := reg.Snapshot()
	if snap["linkstate_rows_patched"] != 3 || snap["linkstate_patch_epochs"] != 1 {
		t.Fatalf("patch instruments = %v, want 3 rows over 1 epoch", snap)
	}

	// Pull a corner node out of everyone's range: adjacency changed, the
	// version must move and routes recompute.
	tp.SetPosition(0, geom.Point{X: -5000, Y: -5000})
	if v := nw.Version(); v == v0 {
		t.Fatal("version unchanged although node 0 left the network")
	}
	if nw.Linked(0, 1) {
		t.Fatal("node 0 still linked after leaving")
	}
	if got := reg.Snapshot()["linkstate_rows_patched"]; got != 4 {
		t.Fatalf("rows patched = %v, want 4", got)
	}
}
