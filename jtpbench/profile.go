package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"strings"
)

// This file reads the CPU profile runtime/pprof writes (gzipped
// profile.proto) with a minimal protobuf walker, so the benchmark can
// bucket samples by package without a dependency.

// cpuProfile is a decoded CPU profile: one stack per sample, leaf
// first, as function names.
type cpuProfile struct {
	stacks  [][]string
	weights []int64
}

// pbField is one protobuf field: its number and either a varint value
// or a length-delimited payload.
type pbField struct {
	num   int
	wire  int
	value uint64
	data  []byte
}

// pbFields splits a protobuf message into its fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, fmt.Errorf("profile: bad field key")
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return nil, fmt.Errorf("profile: bad varint")
			}
			f.value, b = v, b[n:]
		case 1:
			if len(b) < 8 {
				return nil, fmt.Errorf("profile: short fixed64")
			}
			f.value, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, fmt.Errorf("profile: bad length")
			}
			f.data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, fmt.Errorf("profile: short fixed32")
			}
			f.value, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return nil, fmt.Errorf("profile: wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

// uints returns a repeated integer field's values, packed or not.
func (f pbField) uints() ([]uint64, error) {
	if f.wire == 0 {
		return []uint64{f.value}, nil
	}
	var out []uint64
	for b := f.data; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, fmt.Errorf("profile: bad packed varint")
		}
		out, b = append(out, v), b[n:]
	}
	return out, nil
}

// parseCPUProfile decodes a gzipped profile.proto CPU profile.
func parseCPUProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	top, err := pbFields(raw)
	if err != nil {
		return nil, err
	}
	var (
		strs    []string
		funcs   = map[uint64]uint64{}   // function id -> name string index
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		samples [][]uint64
		weights []int64
	)
	for _, f := range top {
		switch f.num {
		case 6: // string_table
			strs = append(strs, string(f.data))
		case 5: // function
			fs, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, x := range fs {
				switch x.num {
				case 1:
					id = x.value
				case 2:
					name = x.value
				}
			}
			funcs[id] = name
		case 4: // location
			fs, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fids []uint64
			for _, x := range fs {
				switch x.num {
				case 1:
					id = x.value
				case 4: // line
					ls, err := pbFields(x.data)
					if err != nil {
						return nil, err
					}
					for _, l := range ls {
						if l.num == 1 {
							fids = append(fids, l.value)
						}
					}
				}
			}
			locs[id] = fids
		case 2: // sample
			fs, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			var ids, vals []uint64
			for _, x := range fs {
				switch x.num {
				case 1:
					v, err := x.uints()
					if err != nil {
						return nil, err
					}
					ids = append(ids, v...)
				case 2:
					v, err := x.uints()
					if err != nil {
						return nil, err
					}
					vals = append(vals, v...)
				}
			}
			w := int64(1)
			if len(vals) > 0 {
				w = int64(vals[0])
			}
			samples = append(samples, ids)
			weights = append(weights, w)
		}
	}
	name := func(idx uint64) string {
		if idx < uint64(len(strs)) {
			return strs[idx]
		}
		return "?"
	}
	p := &cpuProfile{weights: weights}
	for _, ids := range samples {
		var stack []string
		for _, l := range ids {
			for _, fid := range locs[l] {
				stack = append(stack, name(funcs[fid]))
			}
		}
		p.stacks = append(p.stacks, stack)
	}
	return p, nil
}

const modulePrefix = "github.com/javelen/jtp/"

// layerOf maps a function name to the repo module it belongs to
// ("internal/mac.(*MAC).tick" -> "mac"); runtime and internal/runtime
// code maps to "runtime", everything else to "other".
func layerOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, modulePrefix); ok {
		rest = strings.TrimPrefix(rest, "internal/")
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i]
		}
		return rest
	}
	if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}

// total returns the summed sample weight.
func (p *cpuProfile) total() float64 {
	var t int64
	for _, w := range p.weights {
		t += w
	}
	return float64(t)
}

// layerShares returns each layer's share of the samples, by the leaf
// (innermost) frame: the layer's self CPU.
func (p *cpuProfile) layerShares() map[string]float64 {
	out := map[string]float64{}
	t := p.total()
	for i, st := range p.stacks {
		if len(st) > 0 && t > 0 {
			out[layerOf(st[0])] += float64(p.weights[i]) / t
		}
	}
	return out
}

// funcShare is one function's share of the samples.
type funcShare struct {
	Func  string  `json:"func"`
	Share float64 `json:"share"`
}

// topFuncs returns the n functions with the largest flat (leaf) share
// and the n with the largest cumulative share (anywhere on the stack,
// counted once per sample).
func (p *cpuProfile) topFuncs(n int) (flat, cum []funcShare) {
	fl, cu := map[string]float64{}, map[string]float64{}
	t := p.total()
	if t == 0 {
		return nil, nil
	}
	for i, st := range p.stacks {
		w := float64(p.weights[i]) / t
		if len(st) > 0 {
			fl[st[0]] += w
		}
		seen := map[string]bool{}
		for _, f := range st {
			if !seen[f] {
				seen[f] = true
				cu[f] += w
			}
		}
	}
	return topN(fl, n), topN(cu, n)
}

func topN(m map[string]float64, n int) []funcShare {
	out := make([]funcShare, 0, len(m))
	for k, v := range m {
		out = append(out, funcShare{strings.TrimPrefix(k, modulePrefix), v})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Share != out[j].Share {
			return out[i].Share > out[j].Share
		}
		return out[i].Func < out[j].Func
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// mergeProfiles concatenates the samples of several profiles.
func mergeProfiles(ps []*cpuProfile) *cpuProfile {
	out := &cpuProfile{}
	for _, p := range ps {
		out.stacks = append(out.stacks, p.stacks...)
		out.weights = append(out.weights, p.weights...)
	}
	return out
}
