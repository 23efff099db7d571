package topology

// The spatial grid: positions bucketed into square cells whose side is
// at least the radio range, so a node's candidate neighbor set is the
// 3×3 cell neighborhood around its own cell instead of all n−1 other
// nodes. The grid is the substrate of both the one-shot helpers below
// (Adjacency, Connected, Components, HopDistance) and the node package's
// incrementally-patched link-state snapshot: Move re-buckets one node in
// O(1), so a mobility delta of k nodes costs O(k·deg) instead of O(n²).
//
// Cells are one dense array over the bounding box of the field and the
// build-time positions: a cell lookup is an index computation, with no
// hashing. Correctness hinges on one inequality: with cell side ≥ range,
// two nodes within range differ by at most one cell index per axis
// (|a−b| ≤ side ⇒ |⌊a/side⌋−⌊b/side⌋| ≤ 1), so the 3×3 neighborhood is
// a complete candidate set — including nodes sitting exactly on a cell
// boundary, which ⌊·⌋ assigns to exactly one cell. Two rules keep the
// array small without breaking that inequality:
//   - A position outside the box (a node that moved out of the field) is
//     clamped into the edge cell. Clamping never moves two cell indices
//     further apart, so in-range nodes still land at most one cell apart.
//   - The cell count is capped at O(n) by doubling the side. Any side
//     ≥ range keeps the neighborhood complete; a larger one only adds
//     candidates, which callers filter by distance anyway.

import (
	"math"

	"github.com/javelen/jtp/internal/packet"
)

// SpatialGrid is a spatial grid over a topology's positions. It indexes
// the topology it was built from; after any SetPosition the caller must
// Move (or Rebuild) before querying, since the grid does not observe
// position writes on its own. Memory is O(V): the cell array is capped
// at maxCells(n) entries whatever the field size.
type SpatialGrid struct {
	t    *Topology
	side float64

	// Cell (cx, cy) is cells[cy*cols+cx]; cx and cy count from the
	// box's lowest cell, ⌊min/side⌋ on each axis (x0, y0).
	x0, y0     float64
	cols, rows int32
	cells      [][]packet.NodeID

	// Per-node bookkeeping: the cell index and the node's slot within
	// the cell, so Move and remove are O(1) with no searching.
	cell []int32
	slot []int32
}

// gridSideFor maps a radio range to a cell side: the range's magnitude,
// or 1 m for a degenerate range ≤ 0 (where only coincident nodes can be
// adjacent, and any positive side buckets coincident nodes together).
func gridSideFor(radioRange float64) float64 {
	side := math.Abs(radioRange)
	if side <= 0 {
		side = 1
	}
	return side
}

// maxCells caps the cell array of an n-node grid.
func maxCells(n int) float64 { return float64(4*n + 16) }

// NewSpatialGrid builds a grid over t with the given cell side (use
// gridSideFor(range) — a side below the radio range breaks candidate
// completeness) and buckets every node. The grid spans the bounding box
// of the field and the current positions; non-finite coordinates do not
// size it and are clamped into it like any other outside point.
func NewSpatialGrid(t *Topology, side float64) *SpatialGrid {
	if !(side > 0) {
		side = 1
	}
	lo := [2]float64{math.Inf(1), math.Inf(1)}
	hi := [2]float64{math.Inf(-1), math.Inf(-1)}
	extend := func(x, y float64) {
		for i, v := range [2]float64{x, y} {
			if math.IsInf(v, 0) || math.IsNaN(v) {
				continue
			}
			lo[i] = math.Min(lo[i], v)
			hi[i] = math.Max(hi[i], v)
		}
	}
	extend(t.Field.Min.X, t.Field.Min.Y)
	extend(t.Field.Max.X, t.Field.Max.Y)
	for _, p := range t.Pos {
		extend(p.X, p.Y)
	}
	// The field corners are finite in every real layout; an all-NaN one
	// leaves an axis empty, which collapses it to one cell at 0.
	for i := range lo {
		if lo[i] > hi[i] {
			lo[i], hi[i] = 0, 0
		}
	}
	// Doubling terminates: once side exceeds the box's coordinates each
	// axis spans at most a few cells.
	var base, span [2]float64
	limit := maxCells(t.N())
	for {
		for i := range lo {
			base[i] = math.Floor(lo[i] / side)
			span[i] = math.Floor(hi[i]/side) - base[i] + 1
		}
		if span[0]*span[1] <= limit {
			break
		}
		side *= 2
	}
	n := t.N()
	g := &SpatialGrid{
		t:     t,
		side:  side,
		x0:    base[0],
		y0:    base[1],
		cols:  int32(span[0]),
		rows:  int32(span[1]),
		cells: make([][]packet.NodeID, int(span[0]*span[1])),
		cell:  make([]int32, n),
		slot:  make([]int32, n),
	}
	g.Rebuild()
	return g
}

// Side returns the cell side in meters.
func (g *SpatialGrid) Side() float64 { return g.side }

// axisCell maps one coordinate to its cell index on an axis whose
// lowest cell is base and which has n cells, clamping out-of-box (and
// NaN) coordinates into the edge cells.
func (g *SpatialGrid) axisCell(v, base float64, n int32) int32 {
	f := math.Floor(v/g.side) - base
	if !(f > 0) {
		return 0
	}
	if f >= float64(n-1) {
		return n - 1
	}
	return int32(f)
}

// cellOf returns the index of the cell holding node id's position.
func (g *SpatialGrid) cellOf(id packet.NodeID) int32 {
	p := g.t.Pos[int(id)]
	return g.axisCell(p.Y, g.y0, g.rows)*g.cols + g.axisCell(p.X, g.x0, g.cols)
}

// Rebuild re-buckets every node from the topology's current positions.
// A counting pass sizes every cell first, so all cells are carved from
// one backing array of n ids; cells fill in ascending id order.
func (g *SpatialGrid) Rebuild() {
	counts := make([]int32, len(g.cells))
	for i := range g.cell {
		c := g.cellOf(packet.NodeID(i))
		g.cell[i] = c
		counts[c]++
	}
	backing := make([]packet.NodeID, len(g.cell))
	off := int32(0)
	for c, k := range counts {
		g.cells[c] = backing[off : off : off+k]
		off += k
	}
	for i, c := range g.cell {
		g.slot[i] = int32(len(g.cells[c]))
		g.cells[c] = append(g.cells[c], packet.NodeID(i))
	}
}

// remove unbuckets id (swap-delete within its cell).
func (g *SpatialGrid) remove(id packet.NodeID) {
	nodes := g.cells[g.cell[int(id)]]
	i := g.slot[int(id)]
	last := int32(len(nodes) - 1)
	if i != last {
		moved := nodes[last]
		nodes[i] = moved
		g.slot[int(moved)] = i
	}
	g.cells[g.cell[int(id)]] = nodes[:last]
}

// Move re-buckets id after a position change and reports whether its
// cell changed. A move within the cell is one index computation and a
// compare — the fast path for the many mobility steps that stay inside
// one cell.
func (g *SpatialGrid) Move(id packet.NodeID) bool {
	c := g.cellOf(id)
	if c == g.cell[int(id)] {
		return false
	}
	g.remove(id)
	g.cell[int(id)] = c
	g.slot[int(id)] = int32(len(g.cells[c]))
	g.cells[c] = append(g.cells[c], id)
	return true
}

// AppendCandidates appends every node bucketed in the 3×3 cell
// neighborhood of id's current cell — a complete superset of id's
// in-range neighbors, id itself included — to buf and returns it.
// Order is cell order (arbitrary); callers filter by distance and sort.
func (g *SpatialGrid) AppendCandidates(buf []packet.NodeID, id packet.NodeID) []packet.NodeID {
	c := g.cell[int(id)]
	cx, cy := c%g.cols, c/g.cols
	for x := max(cx-1, 0); x <= min(cx+1, g.cols-1); x++ {
		for y := max(cy-1, 0); y <= min(cy+1, g.rows-1); y++ {
			buf = append(buf, g.cells[y*g.cols+x]...)
		}
	}
	return buf
}
