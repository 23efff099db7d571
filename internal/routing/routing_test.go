package routing

import (
	"testing"

	"github.com/javelen/jtp/internal/packet"
	"github.com/javelen/jtp/internal/sim"
)

// gridDir is an adjustable directory for tests: an explicit adjacency
// matrix.
type gridDir struct {
	n   int
	adj map[[2]packet.NodeID]bool
}

func newDir(n int) *gridDir {
	return &gridDir{n: n, adj: map[[2]packet.NodeID]bool{}}
}

func (d *gridDir) link(a, b packet.NodeID) {
	d.adj[[2]packet.NodeID{a, b}] = true
	d.adj[[2]packet.NodeID{b, a}] = true
}

func (d *gridDir) unlink(a, b packet.NodeID) {
	delete(d.adj, [2]packet.NodeID{a, b})
	delete(d.adj, [2]packet.NodeID{b, a})
}

func (d *gridDir) N() int { return d.n }
func (d *gridDir) Linked(a, b packet.NodeID) bool {
	return d.adj[[2]packet.NodeID{a, b}]
}

func chain(n int) *gridDir {
	d := newDir(n)
	for i := 0; i < n-1; i++ {
		d.link(packet.NodeID(i), packet.NodeID(i+1))
	}
	return d
}

func TestChainNextHops(t *testing.T) {
	eng := sim.NewEngine(1)
	d := chain(5)
	r := New(eng, 0, d, Config{})
	r.Start()
	nh, ok := r.NextHop(4)
	if !ok || nh != 1 {
		t.Fatalf("next hop to 4 = %v ok=%v", nh, ok)
	}
	if h := r.HopsTo(4); h != 4 {
		t.Fatalf("hops to 4 = %d", h)
	}
	if h := r.HopsTo(0); h != 0 {
		t.Fatalf("hops to self = %d", h)
	}
	nh, ok = r.NextHop(0)
	if !ok || nh != 0 {
		t.Fatal("self next hop")
	}
}

func TestMidChainRouting(t *testing.T) {
	eng := sim.NewEngine(1)
	d := chain(7)
	r := New(eng, 3, d, Config{})
	r.Start()
	if nh, _ := r.NextHop(0); nh != 2 {
		t.Fatalf("left next hop = %v", nh)
	}
	if nh, _ := r.NextHop(6); nh != 4 {
		t.Fatalf("right next hop = %v", nh)
	}
	if h := r.HopsTo(6); h != 3 {
		t.Fatalf("hops = %d", h)
	}
}

func TestUnreachable(t *testing.T) {
	eng := sim.NewEngine(1)
	d := chain(4)
	d.unlink(1, 2)
	r := New(eng, 0, d, Config{})
	r.Start()
	if _, ok := r.NextHop(3); ok {
		t.Fatal("partitioned destination should be unreachable")
	}
	if h := r.HopsTo(3); h != -1 {
		t.Fatalf("hops to unreachable = %d", h)
	}
}

func TestShortestPathPreferred(t *testing.T) {
	// Diamond: 0-1-3 and 0-2-3, plus direct 0-3.
	eng := sim.NewEngine(1)
	d := newDir(4)
	d.link(0, 1)
	d.link(1, 3)
	d.link(0, 2)
	d.link(2, 3)
	d.link(0, 3)
	r := New(eng, 0, d, Config{})
	r.Start()
	if nh, _ := r.NextHop(3); nh != 3 {
		t.Fatalf("direct link ignored: next hop %v", nh)
	}
	if h := r.HopsTo(3); h != 1 {
		t.Fatalf("hops = %d", h)
	}
}

func TestStaleViewUntilRefresh(t *testing.T) {
	eng := sim.NewEngine(1)
	d := chain(4)
	r := New(eng, 0, d, Config{}) // static: no periodic refresh
	r.Start()
	d.unlink(2, 3) // topology changes under the router
	if h := r.HopsTo(3); h != 3 {
		t.Fatalf("static view should be stale, hops=%d", h)
	}
	r.Refresh()
	if h := r.HopsTo(3); h != -1 {
		t.Fatalf("refresh should see the partition, hops=%d", h)
	}
}

func TestPeriodicRefresh(t *testing.T) {
	eng := sim.NewEngine(1)
	d := chain(4)
	r := New(eng, 0, d, Config{UpdatePeriod: sim.Second, UpdateJitter: 100 * sim.Millisecond})
	r.Start()
	d.unlink(2, 3)
	eng.RunFor(3 * sim.Second)
	if h := r.HopsTo(3); h != -1 {
		t.Fatalf("periodic refresh missed the change, hops=%d", h)
	}
	r.Stop()
	d.link(2, 3)
	eng.RunFor(3 * sim.Second)
	if h := r.HopsTo(3); h != -1 {
		t.Fatal("stopped router kept refreshing")
	}
}

func TestDeterministicTieBreak(t *testing.T) {
	// Two equal-length paths: via 1 or via 2; BFS visits neighbors in id
	// order, so via-1 must win, and repeatedly.
	eng := sim.NewEngine(1)
	d := newDir(4)
	d.link(0, 1)
	d.link(0, 2)
	d.link(1, 3)
	d.link(2, 3)
	for i := 0; i < 5; i++ {
		r := New(eng, 0, d, Config{})
		r.Start()
		if nh, _ := r.NextHop(3); nh != 1 {
			t.Fatalf("tie break not deterministic: %v", nh)
		}
	}
}

func TestViewSnapshotAccessors(t *testing.T) {
	eng := sim.NewEngine(1)
	r := New(eng, 0, chain(3), Config{})
	r.Start()
	v := r.View()
	if v == nil || v.Hops(2) != 2 {
		t.Fatal("view accessor broken")
	}
	var nilView *View
	if _, ok := nilView.NextHop(1); ok {
		t.Fatal("nil view should route nowhere")
	}
	if nilView.Hops(1) != -1 {
		t.Fatal("nil view hops should be -1")
	}
}

// verDir wraps gridDir with explicit link-state versioning and sorted
// neighbor enumeration — a miniature of the node package's epoch
// snapshot directory.
type verDir struct {
	*gridDir
	ver uint64
	nbr []packet.NodeID
}

func (d *verDir) Version() uint64 { return d.ver }

func (d *verDir) Neighbors(u packet.NodeID) []packet.NodeID {
	d.nbr = d.nbr[:0]
	for w := 0; w < d.n; w++ {
		id := packet.NodeID(w)
		if id != u && d.Linked(u, id) {
			d.nbr = append(d.nbr, id)
		}
	}
	return d.nbr
}

// plainDir hides every optional extension of a directory, forcing the
// O(V²) reference BFS.
type plainDir struct{ d Directory }

func (p plainDir) N() int                         { return p.d.N() }
func (p plainDir) Linked(a, b packet.NodeID) bool { return p.d.Linked(a, b) }

// requireViewsEqual compares two views element-wise over all
// destinations.
func requireViewsEqual(t *testing.T, tag string, n int, got, want *View) {
	t.Helper()
	for w := 0; w < n; w++ {
		dst := packet.NodeID(w)
		gh, wh := got.Hops(dst), want.Hops(dst)
		gn, gok := got.NextHop(dst)
		wn, wok := want.NextHop(dst)
		if gh != wh || gok != wok || (gok && gn != wn) {
			t.Fatalf("%s: dst %v: got hops=%d next=%v,%v want hops=%d next=%v,%v",
				tag, dst, gh, gn, gok, wh, wn, wok)
		}
	}
}

// TestNeighborBFSMatchesScanBFS drives both BFS variants over seeded
// random graphs: the neighbor-list walk must produce element-identical
// views to the all-candidates scan, including tie-breaks.
func TestNeighborBFSMatchesScanBFS(t *testing.T) {
	eng := sim.NewEngine(1)
	for seed := int64(1); seed <= 5; seed++ {
		n := 16 + int(seed)
		d := &verDir{gridDir: newDir(n)}
		rnd := sim.NewEngine(seed).Rand()
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rnd.Float64() < 0.2 {
					d.link(packet.NodeID(i), packet.NodeID(j))
				}
			}
		}
		for src := 0; src < n; src++ {
			fast := buildView(d, packet.NodeID(src), eng.Now())
			ref := buildView(plainDir{d}, packet.NodeID(src), eng.Now())
			requireViewsEqual(t, "seed", n, fast, ref)
		}
	}
}

func TestCacheMemoizesWithinVersion(t *testing.T) {
	eng := sim.NewEngine(1)
	d := &verDir{gridDir: chain(6)}
	c := NewCache(d)
	v1 := c.Fill(nil, 0, eng.Now())
	if c.Computes() != 1 {
		t.Fatalf("computes=%d after first fill", c.Computes())
	}
	// Same source, same version: pure copy, and the adoption time is the
	// caller's.
	eng.RunFor(sim.Second)
	v2 := c.Fill(nil, 0, eng.Now())
	if c.Computes() != 1 {
		t.Fatalf("computes=%d after memoized fill, want 1", c.Computes())
	}
	if v2.UpdatedAt != eng.Now() || v2.UpdatedAt == v1.UpdatedAt {
		t.Fatal("memoized fill must stamp the caller's adoption time")
	}
	requireViewsEqual(t, "memo", d.N(), v2, v1)
	// Another source computes its own view once.
	c.Fill(nil, 3, eng.Now())
	c.Fill(nil, 3, eng.Now())
	if c.Computes() != 2 {
		t.Fatalf("computes=%d after second source, want 2", c.Computes())
	}
	// A version bump invalidates every source.
	d.unlink(4, 5)
	d.ver++
	v3 := c.Fill(nil, 0, eng.Now())
	if c.Computes() != 3 {
		t.Fatalf("computes=%d after version bump, want 3", c.Computes())
	}
	if v3.Hops(5) != -1 {
		t.Fatal("recompute missed the topology change")
	}
	// The previously returned views were copies: the recompute must not
	// have rewritten them in place.
	if v1.Hops(5) != 5 || v2.Hops(5) != 5 {
		t.Fatal("cache recompute mutated previously adopted views")
	}
}

func TestCacheWithoutVersioningAlwaysRecomputes(t *testing.T) {
	eng := sim.NewEngine(1)
	d := chain(5) // no Version method
	c := NewCache(d)
	c.Fill(nil, 0, eng.Now())
	d.unlink(3, 4) // no version to bump — next fill must still see it
	v := c.Fill(nil, 0, eng.Now())
	if c.Computes() != 2 {
		t.Fatalf("computes=%d, want recompute on every fill without versioning", c.Computes())
	}
	if v.Hops(4) != -1 {
		t.Fatal("unversioned cache returned a stale view")
	}
}

// TestSharedCacheAcrossRouters is the contract of the node package's
// usage: routers share one cache, each adopting per its own timer, and
// a router that has not refreshed holds its stale view across cache
// recomputes.
func TestSharedCacheAcrossRouters(t *testing.T) {
	eng := sim.NewEngine(1)
	d := &verDir{gridDir: chain(5)}
	c := NewCache(d)
	r0 := New(eng, 0, d, Config{})
	r2 := New(eng, 2, d, Config{})
	r0.UseShared(c)
	r2.UseShared(c)
	r0.Start()
	r2.Start()
	if nh, _ := r0.NextHop(4); nh != 1 {
		t.Fatalf("r0 next hop %v", nh)
	}
	if nh, _ := r2.NextHop(0); nh != 1 {
		t.Fatalf("r2 next hop %v", nh)
	}
	// Partition and bump; only r0 refreshes. r2 keeps its stale view —
	// the paper's staleness semantics survive the shared cache.
	d.unlink(2, 3)
	d.ver++
	r0.Refresh()
	if h := r0.HopsTo(4); h != -1 {
		t.Fatalf("r0 refresh missed the partition, hops=%d", h)
	}
	if h := r2.HopsTo(4); h != 2 {
		t.Fatalf("r2 should still hold its stale view, hops=%d", h)
	}
	r2.Refresh()
	if h := r2.HopsTo(4); h != -1 {
		t.Fatal("r2 refresh should adopt the new snapshot")
	}
}

// TestCacheEvictsSupersededVersions pins the memory bound under
// mobility: when the link-state version moves on, every view memoized
// under a superseded version is evicted (its arrays recycled), so the
// cache holds views only for sources active in the current version
// instead of one per source ever routed.
func TestCacheEvictsSupersededVersions(t *testing.T) {
	eng := sim.NewEngine(1)
	d := &verDir{gridDir: chain(8)}
	c := NewCache(d)
	for src := 0; src < 4; src++ {
		c.Fill(nil, packet.NodeID(src), eng.Now())
	}
	if c.Evictions() != 0 {
		t.Fatalf("evictions=%d before any version change", c.Evictions())
	}
	// Version moves on; the next fill sweeps all four stale entries
	// (including the refilled source's own).
	d.ver++
	c.Fill(nil, 2, eng.Now())
	if c.Evictions() != 4 {
		t.Fatalf("evictions=%d after version bump, want 4", c.Evictions())
	}
	live := 0
	for _, e := range c.ent {
		if e.valid {
			live++
		}
	}
	if live != 1 {
		t.Fatalf("%d live entries after sweep, want only the refilled source", live)
	}
	// Recycled arrays must serve recomputes correctly.
	v := c.Fill(nil, 5, eng.Now())
	if v.Hops(7) != 2 {
		t.Fatalf("recycled-buffer view wrong: hops(7)=%d", v.Hops(7))
	}
	// Unchanged version: no further sweeps.
	ev := c.Evictions()
	c.Fill(nil, 5, eng.Now())
	if c.Evictions() != ev {
		t.Fatalf("evictions moved (%d->%d) without a version change", ev, c.Evictions())
	}
}

// countDir is a verDir that counts the Neighbors rows it serves, per
// row, so tests can see which BFS runs read the directory and which
// read the per-version adjacency memo.
type countDir struct {
	*verDir
	reads []int
}

func newCountDir(seed int64, n int) *countDir {
	d := &countDir{verDir: &verDir{gridDir: newDir(n)}, reads: make([]int, n)}
	rnd := sim.NewEngine(seed).Rand()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if j == i+1 || rnd.Float64() < 0.15 { // connected: a chain plus chords
				d.link(packet.NodeID(i), packet.NodeID(j))
			}
		}
	}
	return d
}

func (d *countDir) Neighbors(u packet.NodeID) []packet.NodeID {
	d.reads[int(u)]++
	return d.verDir.Neighbors(u)
}

func (d *countDir) total() int {
	t := 0
	for _, r := range d.reads {
		t += r
	}
	return t
}

// requireFillsMatchReference fills every source through c and compares
// each view with the O(V²) reference BFS over the same graph.
func requireFillsMatchReference(t *testing.T, tag string, c *Cache, d Directory) {
	t.Helper()
	eng := sim.NewEngine(1)
	for src := 0; src < d.N(); src++ {
		got := c.Fill(nil, packet.NodeID(src), eng.Now())
		want := buildView(plainDir{d}, packet.NodeID(src), eng.Now())
		requireViewsEqual(t, tag, d.N(), got, want)
	}
}

// TestAdjacencyMemoReusesRowsAcrossSources: within one version, the
// first memoFrom-1 BFS runs read the directory, the memoFrom-th copies
// each row it touches, and every later BFS — for any source — reads
// the memo, asking the directory for nothing.
func TestAdjacencyMemoReusesRowsAcrossSources(t *testing.T) {
	eng := sim.NewEngine(1)
	const n = 24
	d := newCountDir(3, n)
	c := NewCache(d)
	for src := 0; src < memoFrom; src++ {
		c.Fill(nil, packet.NodeID(src), eng.Now())
	}
	for u, r := range d.reads {
		if r != memoFrom {
			t.Fatalf("row %d read %d times by %d BFS runs, want once each", u, r, memoFrom)
		}
	}
	requireFillsMatchReference(t, "memo", c, d)
	if got := d.total(); got != memoFrom*n {
		t.Fatalf("directory served %d rows, want %d: later BFS runs re-read rows", got, memoFrom*n)
	}
	if c.Computes() != n {
		t.Fatalf("computes=%d, want %d", c.Computes(), n)
	}
}

// TestAdjacencyMemoInvalidatedByVersionBump: after a version bump every
// memoized row is stale — the next engaged BFS re-reads each row, and
// views built from the memo see the new topology.
func TestAdjacencyMemoInvalidatedByVersionBump(t *testing.T) {
	const n = 20
	d := newCountDir(5, n)
	c := NewCache(d)
	requireFillsMatchReference(t, "v0", c, d)
	if got := d.total(); got != memoFrom*n {
		t.Fatalf("v0 read %d rows, want %d", got, memoFrom*n)
	}
	// Unchanged graph, new version: the rows must be read again.
	d.ver++
	requireFillsMatchReference(t, "v1", c, d)
	if got := d.total(); got != 2*memoFrom*n {
		t.Fatalf("after a bare version bump the directory served %d rows, want %d", got, 2*memoFrom*n)
	}
	// Changed graph: cut the chain at every third link and add a chord,
	// so stale rows would route through missing links.
	for i := 0; i+1 < n; i += 3 {
		d.unlink(packet.NodeID(i), packet.NodeID(i+1))
	}
	d.link(0, n-1)
	d.ver++
	requireFillsMatchReference(t, "v2", c, d)
}

// verOnly is a versioned directory with no neighbor enumeration.
type verOnly struct{ d *verDir }

func (p verOnly) N() int                         { return p.d.N() }
func (p verOnly) Linked(a, b packet.NodeID) bool { return p.d.Linked(a, b) }
func (p verOnly) Version() uint64                { return p.d.ver }

// nbrOnly enumerates neighbors but reports no version.
type nbrOnly struct{ d *countDir }

func (p nbrOnly) N() int                                    { return p.d.N() }
func (p nbrOnly) Linked(a, b packet.NodeID) bool            { return p.d.Linked(a, b) }
func (p nbrOnly) Neighbors(u packet.NodeID) []packet.NodeID { return p.d.Neighbors(u) }

// TestAdjacencyMemoNeedsBothExtensions: a directory without neighbor
// enumeration or without versioning never engages the memo — the
// former probes Linked as before, the latter reads every row from the
// directory on every BFS and sees unversioned changes immediately.
func TestAdjacencyMemoNeedsBothExtensions(t *testing.T) {
	const n = 16
	vd := verOnly{newCountDir(7, n).verDir}
	c := NewCache(vd)
	requireFillsMatchReference(t, "versioned", c, vd)
	if c.adj.dir != nil || c.adj.rows != nil {
		t.Fatal("memo engaged for a directory without Neighbors")
	}

	cd := newCountDir(7, n)
	nd := nbrOnly{cd}
	c = NewCache(nd)
	requireFillsMatchReference(t, "unversioned", c, nd)
	if c.adj.dir != nil || c.adj.rows != nil {
		t.Fatal("memo engaged for a directory without Version")
	}
	if got := cd.total(); got != n*n {
		t.Fatalf("directory served %d rows over %d BFS runs, want %d", got, n, n*n)
	}
	cd.unlink(0, 1)
	cd.unlink(1, 2)
	cd.link(0, 2)
	requireFillsMatchReference(t, "unversioned-changed", c, nd)
}

// TestOnDemandRouter pins Config.OnDemand: Start computes nothing, the
// view materializes at first use, stays within a refresh period, and
// refreshes once the held view is UpdatePeriod old.
func TestOnDemandRouter(t *testing.T) {
	eng := sim.NewEngine(1)
	d := &verDir{gridDir: chain(5)}
	c := NewCache(d)
	r := New(eng, 0, d, Config{UpdatePeriod: sim.Second, OnDemand: true})
	r.UseShared(c)
	r.Start()
	if r.View() != nil {
		t.Fatal("on-demand Start must not compute a view")
	}
	if c.Computes() != 0 {
		t.Fatal("on-demand Start must not touch the cache")
	}
	if nh, ok := r.NextHop(4); !ok || nh != 1 {
		t.Fatalf("first use next hop = %v,%v", nh, ok)
	}
	if c.Computes() != 1 {
		t.Fatalf("computes=%d after first use, want 1", c.Computes())
	}
	// Within the period the held view answers, even if stale.
	d.unlink(3, 4)
	d.ver++
	eng.RunFor(sim.Second / 2)
	if h := r.HopsTo(4); h != 4 {
		t.Fatalf("within-period use must keep the stale view, hops=%d", h)
	}
	// Past the period the next use refreshes.
	eng.RunFor(sim.Second)
	if h := r.HopsTo(4); h != -1 {
		t.Fatalf("past-period use must refresh, hops=%d", h)
	}
	// Self-route needs no view at all.
	r2 := New(eng, 2, d, Config{OnDemand: true})
	r2.UseShared(c)
	r2.Start()
	if nh, ok := r2.NextHop(2); !ok || nh != 2 {
		t.Fatalf("self next hop = %v,%v", nh, ok)
	}
	if r2.View() != nil {
		t.Fatal("self-route must not materialize a view")
	}
	// Zero update period: materialize once, never refresh again.
	r3 := New(eng, 1, d, Config{OnDemand: true})
	r3.UseShared(c)
	r3.Start()
	before := c.Fills()
	r3.NextHop(0)
	r3.NextHop(0)
	if c.Fills() != before+1 {
		t.Fatalf("static on-demand router filled %d times, want 1", c.Fills()-before)
	}
}
