// Package routing implements the link-state routing substrate JTP rides
// on (paper §2: JAVeLEN "uses an energy conserving link-state routing
// algorithm [29], that provides each node with a local, possibly
// inaccurate, view of the network's topology").
//
// Each node keeps its own View — a snapshot of the connectivity graph with
// shortest-path next hops and hop counts — refreshed on an independent
// jittered timer. Under mobility, views go stale between refreshes,
// reproducing the paper's "topological views at the nodes are typically
// not accurate": iJTP's per-hop loss-tolerance computation (§3) and its
// re-encoding of the tolerance field are what keep the end-to-end
// reliability target intact despite that inaccuracy.
//
// The full flooding protocol of [29] is not simulated; its *effect* — a
// periodically refreshed, possibly stale local view — is. Routing control
// traffic is excluded from the energy accounting exactly as the paper
// excludes "energy consumed for network maintenance by the lower layers"
// (§6.1).
package routing

import (
	"sync"

	"github.com/javelen/jtp/internal/packet"
	"github.com/javelen/jtp/internal/sim"
)

// Directory is the oracle the routers snapshot their views from: node
// positions and radio range. The node package implements it over the
// topology and channel.
type Directory interface {
	// N returns the number of nodes.
	N() int
	// Linked reports whether two nodes are currently within radio range.
	Linked(a, b packet.NodeID) bool
}

// NeighborDirectory is an optional Directory extension for directories
// that can enumerate a node's current neighbors directly (the node
// package's epoch-cached adjacency snapshot). BFS over neighbor lists is
// O(V+E); without the extension it falls back to probing all n
// candidates per dequeued node, O(V²).
type NeighborDirectory interface {
	Directory
	// Neighbors returns u's current neighbors in strictly ascending id
	// order — the same set for which Linked(u, ·) is true right now. The
	// returned slice is only valid until the next Neighbors call or
	// directory state change and must not be mutated or retained.
	Neighbors(u packet.NodeID) []packet.NodeID
}

// VersionedDirectory is an optional Directory extension for directories
// that can report a link-state version: a counter that changes whenever
// some Linked answer may have changed (positions moved, a node failed or
// revived, an energy budget ran out or was reset). Two reads returning
// the same version guarantee every view built in between is identical,
// which is what lets the shared Cache memoize views across routers.
type VersionedDirectory interface {
	Directory
	// Version returns the current link-state version. Implementations
	// may refresh internal caches (adjacency snapshot, liveness bitmap)
	// during the call.
	Version() uint64
}

// View is one node's snapshot of the topology: next hops and hop counts
// for every destination.
type View struct {
	// UpdatedAt is the virtual time of the snapshot.
	UpdatedAt sim.Time
	next      []packet.NodeID // next[dst], self for dst==self
	// hops[dst], -1 unreachable. int32 (max path length is bounded by the
	// uint16 node-id space) so the per-BFS -1 fill and the per-Fill copy
	// move half the memory an []int would — both are measurable at the
	// 65536-node bench tier.
	hops []int32
}

// NextHop returns the next hop toward dst and whether dst is reachable.
func (v *View) NextHop(dst packet.NodeID) (packet.NodeID, bool) {
	if v == nil || int(dst) >= len(v.hops) || v.hops[dst] < 0 {
		return 0, false
	}
	return v.next[dst], true
}

// Hops returns the number of links to dst (0 for self), or -1 if
// unreachable in this view.
func (v *View) Hops(dst packet.NodeID) int {
	if v == nil || int(dst) >= len(v.hops) {
		return -1
	}
	return int(v.hops[dst])
}

// buildView computes shortest paths from src by BFS over the current
// adjacency, with neighbors visited in id order for determinism.
func buildView(dir Directory, src packet.NodeID, at sim.Time) *View {
	return buildViewInto(nil, nil, dir, src, at)
}

// buildViewInto is buildView with caller-owned buffers: v (the view to
// overwrite, nil to allocate) and scratch (the BFS queue). Routers
// double-buffer their views through it so periodic refreshes under
// mobility stop allocating.
func buildViewInto(v *View, scratch []packet.NodeID, dir Directory, src packet.NodeID, at sim.Time) *View {
	n := dir.N()
	if v == nil {
		v = &View{}
	}
	v.UpdatedAt = at
	v.next = resizeIDs(v.next, n)
	v.hops = resizeInts(v.hops, n)
	for i := range v.hops {
		v.hops[i] = -1
	}
	v.hops[src] = 0
	v.next[src] = src

	// first hop on the path; computed by BFS outward from src. Both
	// branches visit candidate neighbors in ascending id order, which is
	// exactly the deterministic visit order BFS needs — no sort — so a
	// NeighborDirectory (sorted adjacency lists) produces the identical
	// view in O(V+E) instead of O(V²).
	queue := append(scratch[:0], src)
	if ndir, ok := dir.(NeighborDirectory); ok {
		for qi := 0; qi < len(queue); qi++ {
			u := queue[qi]
			for _, id := range ndir.Neighbors(u) {
				if v.hops[id] >= 0 {
					continue
				}
				v.hops[id] = v.hops[u] + 1
				if u == src {
					v.next[id] = id
				} else {
					v.next[id] = v.next[u]
				}
				queue = append(queue, id)
			}
		}
		return v
	}
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		for w := 0; w < n; w++ {
			id := packet.NodeID(w)
			if id == u || v.hops[id] >= 0 || !dir.Linked(u, id) {
				continue
			}
			v.hops[id] = v.hops[u] + 1
			if u == src {
				v.next[id] = id
			} else {
				v.next[id] = v.next[u]
			}
			queue = append(queue, id)
		}
	}
	return v
}

func resizeIDs(s []packet.NodeID, n int) []packet.NodeID {
	if cap(s) < n {
		return make([]packet.NodeID, n)
	}
	return s[:n]
}

func resizeInts(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// Cache memoizes computed views per source against a shared directory.
// All routers of one network share one Cache: a view built from a given
// link-state snapshot is identical regardless of which router computes
// it, so within one snapshot version the BFS for a source runs once and
// every later refresh of that source is a plain copy. Ownership rules:
//
//   - The cache owns the memoized next/hops arrays and rebuilds them in
//     place when the directory's version moves on; routers therefore
//     never alias them — Fill copies into the router's double-buffered
//     view, so a router legitimately holding a stale view (the paper's
//     staleness semantics) is unaffected by later recomputes.
//   - Validity is keyed on VersionedDirectory.Version. A directory
//     without version reporting gets no memoization — every Fill
//     recomputes — but still benefits from the NeighborDirectory BFS.
//   - A directory that is both versioned and a NeighborDirectory also
//     gets its neighbor rows memoized per version (adjMemo), so the
//     dozens of BFS runs one version may serve read each row from the
//     directory at most memoFrom times.
//
// Fill is serialized by an internal mutex: inside the partitioned
// kernel's parallel windows (sim/kernel.go), on-demand routers on
// different partition workers may refresh concurrently, and each Fill
// both mutates the memo tables and copies out under the lock. The fill
// itself is a pure function of (directory snapshot, src), so the worker
// arrival order cannot change any router's adopted view — the lock is
// for memory safety, not ordering. Stats accessors take the same lock;
// everything else in the package remains single-goroutine.
type Cache struct {
	mu   sync.Mutex
	dir  Directory
	vdir VersionedDirectory // nil: no memoization
	ent  []cacheEntry       // per source node
	// scratch is the shared BFS queue; view is the reusable View header
	// the BFS writes through (its slices are swapped with the entry's).
	scratch []packet.NodeID
	view    View
	// computes counts BFS executions (tests assert memoization); fills
	// counts Fill calls, so fills − computes is the memoization hit count.
	computes uint64
	fills    uint64
	// sweepVer is the directory version the entries were last swept at.
	// When the version moves on, every entry memoized under a superseded
	// version is evicted — its arrays recycled through the free lists
	// below — so long mobile runs hold views only for currently-active
	// sources instead of accumulating one per source ever routed.
	sweepVer  uint64
	evictions uint64
	freeNext  [][]packet.NodeID
	freeHops  [][]int32
	// adj memoizes neighbor rows within the current version; engaged
	// only for directories that both enumerate neighbors and report a
	// version (adj.dir non-nil).
	adj adjMemo
}

// adjMemo memoizes a NeighborDirectory's rows within one link-state
// version. The VersionedDirectory contract makes equal versions mean
// identical Linked answers, hence identical Neighbors rows, so a row
// read once can serve every later BFS of the same version without
// asking the directory again (in the node package, each ask re-filters
// the row through live failure and battery checks).
//
// It engages only when a version serves its memoFrom-th BFS. A copied
// row pays off only if a later BFS of the same version reads it, and
// networks whose routers refresh on demand run one or two BFS per
// version (measured at 1k to 65,536 nodes), so they read the directory
// directly and never grow the arena; eagerly refreshed meshes run
// dozens per version. Once engaged, rows are copied lazily, on first
// touch, into one flat arena; the arena is truncated, not freed, when
// the next version engages, so its capacity is bounded by the directed
// edges of the largest engaged version.
type adjMemo struct {
	dir   NeighborDirectory
	runs  int    // BFS runs served in the current version
	gen   uint64 // stamp of the rows memoized in the current version
	rows  []memoRow
	arena []packet.NodeID
}

// memoFrom is the per-version BFS run at which adjMemo engages.
const memoFrom = 3

// memoRow locates one memoized row in the arena. uint32 offsets are
// exact: at most 65,536 nodes (the uint16 id space) have fewer than
// 2^32 directed edges between them.
type memoRow struct {
	gen    uint64 // valid only when equal to adjMemo.gen
	off, n uint32
}

// next returns the directory the next BFS of the current version reads:
// the bare directory before the memoFrom-th BFS, the memo from then on.
// n is the node count.
func (m *adjMemo) next(n int) Directory {
	m.runs++
	if m.runs < memoFrom {
		return m.dir
	}
	if m.runs == memoFrom {
		m.gen++
		m.arena = m.arena[:0]
		if len(m.rows) < n {
			m.rows = append(m.rows, make([]memoRow, n-len(m.rows))...)
		}
	}
	return m
}

func (m *adjMemo) N() int                         { return m.dir.N() }
func (m *adjMemo) Linked(a, b packet.NodeID) bool { return m.dir.Linked(a, b) }

// Neighbors returns u's row for the current version, copying it from
// the directory on first touch. The returned slice is capped at its
// length, so nothing can append through it into the next row.
func (m *adjMemo) Neighbors(u packet.NodeID) []packet.NodeID {
	r := &m.rows[int(u)]
	if r.gen != m.gen {
		row := m.dir.Neighbors(u)
		*r = memoRow{gen: m.gen, off: uint32(len(m.arena)), n: uint32(len(row))}
		m.arena = append(m.arena, row...)
	}
	return m.arena[r.off : r.off+r.n : r.off+r.n]
}

// cacheEntry is one source's memoized view.
type cacheEntry struct {
	version uint64
	valid   bool
	next    []packet.NodeID
	hops    []int32
}

// NewCache returns a view cache over dir.
func NewCache(dir Directory) *Cache {
	c := &Cache{dir: dir}
	c.vdir, _ = dir.(VersionedDirectory)
	if ndir, ok := dir.(NeighborDirectory); ok && c.vdir != nil {
		c.adj.dir = ndir
	}
	return c
}

// Computes returns the number of BFS executions the cache has performed;
// the gap between Computes and Fill calls is the memoization hit count.
func (c *Cache) Computes() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.computes
}

// Fills returns the number of Fill calls served (hits plus recomputes).
func (c *Cache) Fills() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fills
}

// Evictions returns the number of memoized views evicted because their
// link-state version was superseded.
func (c *Cache) Evictions() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
}

// sweep evicts every entry memoized under a version other than fresh,
// recycling its arrays, so cache memory is bounded by the sources active
// in the current version (plus the free lists, bounded by the peak
// active-source count) instead of growing with every source ever routed
// across the run. It also restarts the adjacency memo's BFS count, so
// the new version's rows are read afresh.
func (c *Cache) sweep(fresh uint64) {
	for i := range c.ent {
		e := &c.ent[i]
		if !e.valid || e.version == fresh {
			continue
		}
		if e.next != nil {
			c.freeNext = append(c.freeNext, e.next)
			c.freeHops = append(c.freeHops, e.hops)
			e.next, e.hops = nil, nil
		}
		e.valid = false
		c.evictions++
	}
	c.sweepVer = fresh
	c.adj.runs = 0
}

// Fill produces the current view from src into v (allocating one if v is
// nil) and returns it. v's buffers are reused, so a router double-
// buffering its views through Fill performs zero steady-state
// allocations; on a memoized hit the call is a pure copy. UpdatedAt is
// stamped with at — adoption time is the caller's, not the compute
// time's, preserving per-router staleness.
func (c *Cache) Fill(v *View, src packet.NodeID, at sim.Time) *View {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.fills++
	n := c.dir.N()
	if len(c.ent) < n {
		c.ent = append(c.ent, make([]cacheEntry, n-len(c.ent))...)
	}
	e := &c.ent[int(src)]
	fresh := e.version
	if c.vdir != nil {
		fresh = c.vdir.Version()
		if fresh != c.sweepVer {
			c.sweep(fresh)
		}
	}
	if c.vdir == nil || !e.valid || e.version != fresh {
		// Recompute through the shared view header: borrow the entry's
		// arrays as the target buffers (refilling evicted entries from the
		// free lists), BFS, and store them back.
		if cap(c.scratch) < n {
			c.scratch = make([]packet.NodeID, 0, n)
		}
		if e.next == nil {
			if k := len(c.freeNext); k > 0 {
				e.next, c.freeNext = c.freeNext[k-1], c.freeNext[:k-1]
				e.hops, c.freeHops = c.freeHops[k-1], c.freeHops[:k-1]
			}
		}
		dir := c.dir
		if c.adj.dir != nil {
			dir = c.adj.next(n)
		}
		c.view.next, c.view.hops = e.next, e.hops
		buildViewInto(&c.view, c.scratch, dir, src, at)
		e.next, e.hops = c.view.next, c.view.hops
		e.version, e.valid = fresh, true
		c.computes++
	}
	if v == nil {
		v = &View{}
	}
	v.UpdatedAt = at
	v.next = resizeIDs(v.next, n)
	v.hops = resizeInts(v.hops, n)
	copy(v.next, e.next)
	copy(v.hops, e.hops)
	return v
}

// Config parameterizes the routing layer.
type Config struct {
	// UpdatePeriod is how often each node refreshes its view. Zero means
	// static routing: views are computed once at Start.
	UpdatePeriod sim.Duration
	// UpdateJitter desynchronizes the refresh timers.
	UpdateJitter sim.Duration
	// OnDemand, when true, turns the router lazy: Start computes nothing
	// and arms no timer; the view materializes on the first NextHop /
	// HopsTo call and is refreshed in place once it is UpdatePeriod old
	// (never, if UpdatePeriod is zero). Nodes that neither originate nor
	// forward traffic then pay no view memory or BFS at all — at 10k+
	// nodes the eager per-router O(n) views are the dominant cost, and
	// almost all of them are never consulted. Staleness stays bounded by
	// UpdatePeriod, but refresh happens at use time rather than on a
	// jittered timer, so only scenarios built for scale opt in.
	OnDemand bool
}

// Defaults returns 1 s refresh with 200 ms jitter (mobile scenarios);
// static scenarios pass UpdatePeriod 0.
func Defaults() Config {
	return Config{UpdatePeriod: sim.Second, UpdateJitter: 200 * sim.Millisecond}
}

// Router is one node's routing instance.
type Router struct {
	id   packet.NodeID
	dir  Directory
	eng  *sim.Engine
	cfg  Config
	view *View
	// spare is the double-buffered view the next Refresh writes into
	// (readers may hold r.view only until the next refresh); scratch is
	// the reusable BFS queue.
	spare   *View
	scratch []packet.NodeID
	// shared, when non-nil, is the network-wide view cache Refresh
	// adopts snapshots from instead of running its own BFS.
	shared *Cache
	tick   *sim.Ticker
}

// New returns a router for node id over the directory.
func New(eng *sim.Engine, id packet.NodeID, dir Directory, cfg Config) *Router {
	return &Router{id: id, dir: dir, eng: eng, cfg: cfg}
}

// UseShared attaches the network-wide view cache. Call before Start;
// all routers sharing a cache must share its directory.
func (r *Router) UseShared(c *Cache) { r.shared = c }

// SetEngine re-points the router's engine. The node layer calls it when
// the partitioned kernel is enabled so an on-demand router's refresh
// decisions read its own partition's clock (the exact current event
// time inside parallel windows) instead of the root clock. Call before
// Start.
func (r *Router) SetEngine(eng *sim.Engine) { r.eng = eng }

// Start computes the initial view and, for a positive update period,
// begins periodic refresh. An on-demand router does neither — its view
// materializes at first use (see Config.OnDemand).
func (r *Router) Start() {
	if r.cfg.OnDemand {
		return
	}
	r.Refresh()
	if r.cfg.UpdatePeriod > 0 {
		r.tick = r.eng.NewJitteredTicker(r.cfg.UpdatePeriod, r.cfg.UpdateJitter, r.Refresh)
	}
}

// Stop halts periodic refresh.
func (r *Router) Stop() {
	if r.tick != nil {
		r.tick.Stop()
	}
}

// Refresh adopts a fresh snapshot of the directory immediately, reusing
// the router's spare view buffers. With a shared cache attached, the
// snapshot comes from the cache (one BFS per source per link-state
// version, shared across routers); the router still only adopts it now,
// at its own timer, so UpdatedAt and the staleness semantics are
// unchanged. Without a cache it runs its own BFS as before.
func (r *Router) Refresh() {
	if r.shared != nil {
		next := r.shared.Fill(r.spare, r.id, r.eng.Now())
		r.spare = r.view
		r.view = next
		return
	}
	if r.scratch == nil {
		r.scratch = make([]packet.NodeID, 0, r.dir.N())
	}
	next := buildViewInto(r.spare, r.scratch, r.dir, r.id, r.eng.Now())
	r.spare = r.view
	r.view = next
}

// maybeRefresh materializes or refreshes an on-demand router's view: on
// first use, and thereafter whenever the held view is at least
// UpdatePeriod old. Deterministic — it depends only on virtual time.
func (r *Router) maybeRefresh() {
	if !r.cfg.OnDemand {
		return
	}
	if r.view != nil &&
		(r.cfg.UpdatePeriod <= 0 || r.eng.Now().Sub(r.view.UpdatedAt) < r.cfg.UpdatePeriod) {
		return
	}
	r.Refresh()
}

// NextHop returns the next hop toward dst according to this node's
// current (possibly stale) view.
func (r *Router) NextHop(dst packet.NodeID) (packet.NodeID, bool) {
	if dst == r.id {
		return r.id, true
	}
	r.maybeRefresh()
	return r.view.NextHop(dst)
}

// HopsTo returns this node's estimate of the remaining path length to
// dst — the H_i of §3 — or -1 if dst is unreachable in the current view.
func (r *Router) HopsTo(dst packet.NodeID) int {
	r.maybeRefresh()
	return r.view.Hops(dst)
}

// View returns the current view (for tests and tracing). Views are
// double-buffered, not immutable: the returned pointer is rewritten in
// place by the second-next Refresh, so callers comparing routes across
// refreshes must copy what they need first.
func (r *Router) View() *View { return r.view }
