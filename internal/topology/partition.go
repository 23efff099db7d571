package topology

import (
	"math"
	"sort"

	"github.com/javelen/jtp/internal/sim"
)

// This file seeds the parallel simulation kernel (sim/kernel.go): a
// deterministic spatial partition of the node set and the conservative
// lookahead bound the kernel synchronizes on.

// cellCoord buckets one coordinate. Floor (not truncation) keeps the
// mapping consistent across negative coordinates.
func cellCoord(v, side float64) int32 {
	return int32(math.Floor(v / side))
}

// packCell packs signed cell coordinates into one sort key; the uint32
// casts make the packing a bijection on int32 pairs.
func packCell(cx, cy int32) uint64 {
	return uint64(uint32(cx))<<32 | uint64(uint32(cy))
}

// PartitionByCell assigns every node to one of parts partitions, seeded
// by grid cells: nodes are keyed by the radio-range square their
// position falls in (unclamped, over the whole plane), ordered by
// (cell, id), and split into contiguous balanced chunks. Nodes sharing a
// cell therefore land in the same partition except at chunk boundaries,
// partition sizes differ by at most one, and the assignment is a pure
// function of the positions — identical for every run of the same
// scenario.
//
// The returned slice maps node id to partition index. parts is clamped
// to [1, n] so empty partitions never exist.
func PartitionByCell(t *Topology, radioRange float64, parts int) []int32 {
	n := t.N()
	if parts < 1 {
		parts = 1
	}
	if parts > n {
		parts = n
	}
	side := gridSideFor(radioRange)
	type keyed struct {
		key uint64
		id  int32
	}
	nodes := make([]keyed, n)
	for i, p := range t.Pos {
		nodes[i] = keyed{key: packCell(cellCoord(p.X, side), cellCoord(p.Y, side)), id: int32(i)}
	}
	sort.Slice(nodes, func(a, b int) bool {
		if nodes[a].key != nodes[b].key {
			return nodes[a].key < nodes[b].key
		}
		return nodes[a].id < nodes[b].id
	})
	owner := make([]int32, n)
	for rank, nd := range nodes {
		// Contiguous balanced chunks: partition p covers sorted ranks
		// [p*n/parts, (p+1)*n/parts).
		owner[nd.id] = int32(rank * parts / n)
	}
	return owner
}

// MinCrossPartitionLatency derives the kernel's conservative lookahead
// bound from the channel and MAC timing models: radio propagation is
// instantaneous in this simulator and every frame hop happens inside a
// TDMA slot-tick event, so the minimum virtual time between a
// transmission in one partition and its earliest possible effect in
// another is exactly one MAC slot. Propagation delay, were the channel
// model to gain one, would add to the bound — hence the parameter.
func MinCrossPartitionLatency(propagation, slot sim.Duration) sim.Duration {
	if slot <= 0 {
		slot = sim.Millisecond
	}
	return propagation + slot
}
