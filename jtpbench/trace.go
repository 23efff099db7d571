package main

import (
	"sort"
	"time"
)

// span is one timed interval of the traced run. Times are seconds since
// the tracer started; Parent is the enclosing span's ID (-1 for the
// root) and Run the campaign run index the span belongs to (-1 when the
// span is not part of one run).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
	Run    int     `json:"run"`
}

// tracer keeps the traced run's spans in memory until the run ends.
// Only the main goroutine calls begin/end/adopt; campaign workers write
// their per-run spans into slots preallocated by execute.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() float64 { return time.Since(t.t0).Seconds() }

// begin opens a span under parent and returns its ID.
func (t *tracer) begin(name string, parent int) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: t.now(), Run: -1})
	return id
}

// end closes the span.
func (t *tracer) end(id int) { t.spans[id].End = t.now() }

// adopt files a pass's per-run spans (campaign.run followed by its two
// children, per run) under parent.
func (t *tracer) adopt(parent int, runs []span) {
	for i := 0; i+2 < len(runs); i += 3 {
		top := len(t.spans)
		r := runs[i]
		r.ID, r.Parent = top, parent
		t.spans = append(t.spans, r)
		for _, c := range runs[i+1 : i+3] {
			c.ID, c.Parent = len(t.spans), top
			t.spans = append(t.spans, c)
		}
	}
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of its interval its children cover.
func (t *tracer) selfTimes() map[string]float64 {
	children := map[int][][2]float64{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	out := map[string]float64{}
	for _, s := range t.spans {
		out[s.Name] += (s.End - s.Start) - covered(children[s.ID], s.Start, s.End)
	}
	return out
}

// covered returns the length of the union of the intervals, clipped to
// [lo, hi]. Children of one parent may overlap (concurrent workers).
func covered(iv [][2]float64, lo, hi float64) float64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE float64
	open := false
	for _, x := range iv {
		s, e := max(x[0], lo), min(x[1], hi)
		if e <= s {
			continue
		}
		if open && s <= curE {
			curE = max(curE, e)
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = s, e, true
	}
	if open {
		total += curE - curS
	}
	return total
}

// total sums the durations of the spans with the given name.
func (t *tracer) total(name string) float64 {
	var sum float64
	for _, s := range t.spans {
		if s.Name == name {
			sum += s.End - s.Start
		}
	}
	return sum
}
