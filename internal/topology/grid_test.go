package topology

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/javelen/jtp/internal/geom"
	"github.com/javelen/jtp/internal/packet"
)

// bruteAdjacency is the O(n²) all-pairs oracle the spatial-hash path is
// pinned against: every ordered pair within the squared range, ascending.
func bruteAdjacency(tp *Topology, radioRange float64) [][]packet.NodeID {
	n := tp.N()
	r2 := radioRange * radioRange
	adj := make([][]packet.NodeID, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && tp.Pos[i].Dist2(tp.Pos[j]) <= r2 {
				adj[i] = append(adj[i], packet.NodeID(j))
			}
		}
	}
	return adj
}

// gridRows derives every node's neighbor row through an incrementally
// maintained grid (candidates → range filter → sort), the same
// derivation the node package's link snapshot uses.
func gridRows(g *SpatialGrid, tp *Topology, radioRange float64) [][]packet.NodeID {
	n := tp.N()
	r2 := radioRange * radioRange
	rows := make([][]packet.NodeID, n)
	var cand []packet.NodeID
	for i := 0; i < n; i++ {
		id := packet.NodeID(i)
		cand = g.AppendCandidates(cand[:0], id)
		for _, j := range cand {
			if j != id && tp.Pos[i].Dist2(tp.Pos[int(j)]) <= r2 {
				rows[i] = append(rows[i], j)
			}
		}
		slices.Sort(rows[i])
	}
	return rows
}

func requireSameAdjacency(t *testing.T, label string, got, want [][]packet.NodeID) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if len(g) != len(w) {
			t.Fatalf("%s: node %d row %v, want %v", label, i, g, w)
		}
		for k := range w {
			if g[k] != w[k] {
				t.Fatalf("%s: node %d row %v, want %v", label, i, g, w)
			}
		}
	}
}

// gridTestFamilies builds the four topology families at a given seed.
func gridTestFamilies(seed int64) map[string]*Topology {
	rng := rand.New(rand.NewSource(seed))
	rgg, _ := Random(40, 100, rng, 200) // connectivity irrelevant here
	return map[string]*Topology{
		"chain": Linear(17, 80),
		"grid":  GridN(30, 90),
		"star":  Star(12, 95),
		"rgg":   rgg,
	}
}

// TestSpatialGridAdjacencyElementIdentical pins the grid adjacency
// element-identical to the brute-force O(n²) oracle across topology
// families × seeds × radio ranges — including a zero range (only
// coincident nodes adjacent), a negative range (same disk as its
// magnitude, matching the squared-distance predicate), ranges that put
// lattice nodes exactly on cell boundaries, and random-waypoint-style
// mobility steps maintained through incremental Move calls rather than
// rebuilds. The edge layouts cover the dense array's clamping and cap:
// nodes moved far outside the field (and to non-finite coordinates), a
// field so large for its range that the cell cap doubles the side, and
// a zero-size field.
func TestSpatialGridAdjacencyElementIdentical(t *testing.T) {
	ranges := []float64{0, -100, 25, 80, 100, 250, 1e9}
	for _, seed := range []int64{1, 7, 42} {
		for name, tp := range gridTestFamilies(seed) {
			for _, r := range ranges {
				mrng := rand.New(rand.NewSource(seed*1000 + int64(len(name))))
				requireGridMatchesBrute(t, name, tp, r, mrng, 600)
			}
		}
	}

	// Far outside the field: a 20 km spread around a ~1 km field puts
	// most moved nodes in the clamped edge cells.
	for _, seed := range []int64{3, 9} {
		for _, r := range []float64{50, 100, 400} {
			tp := GridN(36, 90)
			requireGridMatchesBrute(t, "outside", tp, r, rand.New(rand.NewSource(seed)), 20000)
		}
	}
	// Non-finite coordinates, at build time and after moves: they size
	// nothing, clamp into edge cells, and are adjacent to no one.
	nonFinite := GridN(25, 70)
	nonFinite.Pos[3] = geom.Point{X: math.NaN(), Y: 10}
	nonFinite.Pos[7] = geom.Point{X: math.Inf(1), Y: math.Inf(-1)}
	nonFinite.Pos[11] = geom.Point{X: 1e300, Y: -1e300}
	g := NewSpatialGrid(nonFinite, gridSideFor(100))
	requireSameAdjacency(t, "non-finite", gridRows(g, nonFinite, 100), bruteAdjacency(nonFinite, 100))
	for i, p := range []geom.Point{{X: math.Inf(-1), Y: 5}, {X: 30, Y: math.NaN()}, {X: 140, Y: 70}} {
		nonFinite.SetPosition(packet.NodeID(2*i), p)
		g.Move(packet.NodeID(2 * i))
	}
	requireSameAdjacency(t, "non-finite moved", gridRows(g, nonFinite, 100), bruteAdjacency(nonFinite, 100))

	// Cell cap: a 0.5 m range on a 40-node field of several km would
	// need millions of range-sided cells; the side doubles instead.
	rng := rand.New(rand.NewSource(5))
	capped, _ := Random(40, 100, rng, 1)
	for i := range capped.Pos {
		if i%2 == 1 { // pairs of nearly coincident nodes
			capped.Pos[i] = geom.Point{X: capped.Pos[i-1].X + 0.3, Y: capped.Pos[i-1].Y}
		}
	}
	for _, r := range []float64{0.5, 0.25} {
		g := NewSpatialGrid(capped, gridSideFor(r))
		if g.Side() <= r || float64(len(g.cells)) > maxCells(capped.N()) {
			t.Fatalf("range %g: side %g with %d cells, want side > range and ≤ %g cells",
				r, g.Side(), len(g.cells), maxCells(capped.N()))
		}
		requireGridMatchesBrute(t, "capped", capped.Clone(), r, rand.New(rand.NewSource(11)), 3000)
	}

	// Zero-size field: every node at one point, no field extent.
	zero := &Topology{Pos: make([]geom.Point, 9)}
	for _, r := range []float64{0, 1, 100} {
		requireGridMatchesBrute(t, "zero-size", zero.Clone(), r, rand.New(rand.NewSource(2)), 1)
	}
}

// requireGridMatchesBrute builds a grid over tp, pins its rows to the
// brute-force oracle, then runs five mobility steps — a third of the
// nodes jittered uniformly over a spread-wide square around the origin,
// some snapped onto exact cell corners — keeping the grid current with
// Move only and re-checking after each.
func requireGridMatchesBrute(t *testing.T, name string, tp *Topology, r float64, mrng *rand.Rand, spread float64) {
	t.Helper()
	g := NewSpatialGrid(tp, gridSideFor(r))
	requireSameAdjacency(t, name, gridRows(g, tp, r), bruteAdjacency(tp, r))
	for step := 0; step < 5; step++ {
		for i := 0; i < tp.N(); i++ {
			if mrng.Intn(3) != 0 {
				continue
			}
			id := packet.NodeID(i)
			p := geom.Point{
				X: (mrng.Float64() - 0.5) * spread,
				Y: (mrng.Float64() - 0.5) * spread,
			}
			if mrng.Intn(4) == 0 {
				// Exactly on a cell corner (multiples of the side).
				p.X = float64(mrng.Intn(7)-3) * g.Side()
				p.Y = float64(mrng.Intn(7)-3) * g.Side()
			}
			tp.SetPosition(id, p)
			g.Move(id)
		}
		requireSameAdjacency(t, name, gridRows(g, tp, r), bruteAdjacency(tp, r))
	}
}

// TestComponentsMatchHopDistance pins the one-sweep component labeling
// to the HopDistance oracle on connected and disconnected layouts: two
// nodes share a label exactly when a path joins them, and labels are
// numbered by each component's smallest id.
func TestComponentsMatchHopDistance(t *testing.T) {
	layouts := gridTestFamilies(13)
	layouts["islands"] = Linear(12, 150) // every node isolated at range 100
	pairs := Linear(10, 60)
	for i := range pairs.Pos {
		pairs.Pos[i].X = float64(i/2)*500 + float64(i%2)*60 // five 2-node islands
	}
	layouts["pairs"] = pairs
	layouts["single"] = Linear(1, 80)
	for name, tp := range layouts {
		// 80 and 90 are the chain and lattice spacings: neighbors sit
		// exactly at the range, on the predicate's boundary.
		for _, r := range []float64{0, 50, 80, 90, 100, 250} {
			comp := Components(tp, r)
			if len(comp) != tp.N() {
				t.Fatalf("%s r=%g: %d labels for %d nodes", name, r, len(comp), tp.N())
			}
			next := int32(0)
			for a := 0; a < tp.N(); a++ {
				if comp[a] > next {
					t.Fatalf("%s r=%g: node %d labeled %d before label %d appeared", name, r, a, comp[a], next)
				}
				if comp[a] == next {
					next++
				}
				for b := 0; b < tp.N(); b++ {
					reach := HopDistance(tp, r, packet.NodeID(a), packet.NodeID(b)) >= 0
					if (comp[a] == comp[b]) != reach {
						t.Fatalf("%s r=%g: nodes %d,%d labels %d,%d but reachable=%v",
							name, r, a, b, comp[a], comp[b], reach)
					}
				}
			}
			if Connected(tp, r) != (next == 1) {
				t.Fatalf("%s r=%g: Connected=%v with %d components", name, r, Connected(tp, r), next)
			}
		}
	}
	if got := Components(&Topology{}, 100); len(got) != 0 {
		t.Fatalf("empty topology labels = %v", got)
	}
}

// TestAdjacencyHelperMatchesBruteForce pins the one-shot Adjacency
// helper (grid-backed since the spatial-hash rewrite) to the oracle,
// including its nil-row convention for isolated nodes.
func TestAdjacencyHelperMatchesBruteForce(t *testing.T) {
	for _, seed := range []int64{3, 11} {
		for name, tp := range gridTestFamilies(seed) {
			for _, r := range []float64{0, 50, 100, 400} {
				requireSameAdjacency(t, name, Adjacency(tp, r), bruteAdjacency(tp, r))
			}
		}
	}
	tp := Linear(3, 1000) // fully isolated at range 100
	for i, row := range Adjacency(tp, 100) {
		if row != nil {
			t.Fatalf("isolated node %d row = %v, want nil", i, row)
		}
	}
}

// TestEpochFoldAndLastDelta pins the read-triggered fold contract now
// that per-node deltas ride along: SetPosition never advances the epoch
// itself; an arbitrarily large batch folds into exactly one bump at the
// next Epoch read; and LastDelta reports precisely the nodes that moved
// in that batch, each once, remaining stable until the next fold.
func TestEpochFoldAndLastDelta(t *testing.T) {
	tp := Linear(6, 50)
	e0 := tp.Epoch()
	if d := tp.LastDelta(); len(d) != 0 {
		t.Fatalf("pristine LastDelta = %v, want empty", d)
	}

	// A batch: node 2 moves twice, node 4 once, node 1 written in place.
	tp.SetPosition(2, geom.Point{X: 1, Y: 1})
	tp.SetPosition(4, geom.Point{X: 2, Y: 2})
	tp.SetPosition(2, geom.Point{X: 3, Y: 3})
	tp.SetPosition(1, tp.Position(1)) // no-op: must not enter the delta
	if e := tp.Epoch(); e != e0+1 {
		t.Fatalf("batch advanced epoch by %d, want 1", e-e0)
	}
	d := append([]packet.NodeID(nil), tp.LastDelta()...)
	slices.Sort(d)
	if len(d) != 2 || d[0] != 2 || d[1] != 4 {
		t.Fatalf("LastDelta = %v, want [2 4]", d)
	}
	// Stable across reads without mutations.
	if tp.Epoch() != e0+1 || len(tp.LastDelta()) != 2 {
		t.Fatal("delta must persist until the next fold")
	}

	// Next batch supersedes the delta entirely.
	tp.SetPosition(0, geom.Point{X: 9, Y: 9})
	if e := tp.Epoch(); e != e0+2 {
		t.Fatalf("second batch advanced epoch to %d, want %d", e, e0+2)
	}
	if d := tp.LastDelta(); len(d) != 1 || d[0] != 0 {
		t.Fatalf("second LastDelta = %v, want [0]", d)
	}
}
