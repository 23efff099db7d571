package campaign

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"github.com/javelen/jtp/internal/stats"
)

// Shard selects a deterministic slice of a campaign for one process:
// shard Index of Of. The zero value (Of == 0) means unsharded and is
// treated as shard 0 of 1 everywhere.
//
// Selection is cell-granular: the matrix's cell index space [0, C) is
// partitioned into Of contiguous, balanced ranges, and shard i executes
// exactly the expanded runs whose cells fall in range i. Because the
// expansion is cell-major, each shard's run list is a contiguous slice
// of the global run-index space — and because a cell's runs never
// straddle shards, merging shard results concatenates disjoint cell
// aggregates, which is what makes merged reports byte-identical to an
// unsharded run (see MergeReports).
type Shard struct {
	Index int `json:"index"`
	Of    int `json:"of"`
}

// Enabled reports whether the shard actually restricts the campaign.
func (s Shard) Enabled() bool { return s.Of > 1 }

// norm maps the zero value to the canonical unsharded 0/1.
func (s Shard) norm() Shard {
	if s.Of == 0 {
		return Shard{0, 1}
	}
	return s
}

// MaxShards caps the shard count. Merges size their bookkeeping by the
// count read from shard files, so it must be bounded; a million shards
// is far beyond any campaign's cell count.
const MaxShards = 1 << 20

// Validate rejects impossible shard coordinates.
func (s Shard) Validate() error {
	s = s.norm()
	if s.Of < 1 {
		return fmt.Errorf("campaign: shard count %d < 1", s.Of)
	}
	if s.Of > MaxShards {
		return fmt.Errorf("campaign: shard count %d exceeds %d", s.Of, MaxShards)
	}
	if s.Index < 0 || s.Index >= s.Of {
		return fmt.Errorf("campaign: shard index %d outside [0,%d)", s.Index, s.Of)
	}
	return nil
}

// String renders the shard as "i/N".
func (s Shard) String() string {
	s = s.norm()
	return fmt.Sprintf("%d/%d", s.Index, s.Of)
}

// ParseShard parses "i/N" (e.g. "0/3") into a validated Shard.
func ParseShard(v string) (Shard, error) {
	i := strings.IndexByte(v, '/')
	if i < 0 {
		return Shard{}, fmt.Errorf("campaign: shard %q not of the form i/N", v)
	}
	idx, err1 := strconv.Atoi(v[:i])
	of, err2 := strconv.Atoi(v[i+1:])
	if err1 != nil || err2 != nil {
		return Shard{}, fmt.Errorf("campaign: shard %q not of the form i/N", v)
	}
	if of < 1 {
		return Shard{}, fmt.Errorf("campaign: shard count %d < 1", of)
	}
	sh := Shard{Index: idx, Of: of}
	if err := sh.Validate(); err != nil {
		return Shard{}, err
	}
	return sh, nil
}

// CellRange returns the half-open cell-index range [lo, hi) this shard
// owns out of numCells. Ranges are contiguous, disjoint, balanced to
// within one cell, and their union over all shards covers every cell.
// Shards beyond the cell count get empty ranges.
func (s Shard) CellRange(numCells int) (lo, hi int) {
	s = s.norm()
	return s.Index * numCells / s.Of, (s.Index + 1) * numCells / s.Of
}

// filterSpecs returns the sub-slice of the expanded run list this shard
// executes. Because expansion is cell-major and the cell range is
// contiguous, the result is a contiguous window of specs.
func (s Shard) filterSpecs(specs []RunSpec, numCells, runsPerCell int) []RunSpec {
	lo, hi := s.CellRange(numCells)
	return specs[lo*runsPerCell : hi*runsPerCell]
}

// ShardFileVersion is the current shard result / checkpoint state
// schema version. Readers reject other versions.
const ShardFileVersion = 1

// ShardFile is the exported, versioned result format one shard writes
// and `campaign.MergeReports` (CLI: `jtpsim merge`) folds back into a
// single Report. It is self-contained: everything needed to rebuild the
// merged report — axis names, per-cell axis values (in canonical
// FormatValue form), and each cell's exact stats.Running state — rides
// in the file, so merging needs no access to the original matrix.
type ShardFile struct {
	// Version is ShardFileVersion; readers reject anything else.
	Version int `json:"version"`
	// Campaign and Axes mirror the matrix; merge validates they agree
	// across shards.
	Campaign string   `json:"campaign"`
	Axes     []string `json:"axes"`
	// Fingerprint is the shard-independent campaign identity hash (see
	// Report.Fingerprint). Merge refuses shard sets whose non-empty
	// fingerprints disagree; empty (files from older builds) skips the
	// check.
	Fingerprint string `json:"fingerprint,omitempty"`
	// Shard is this file's coordinates; merge requires one file per
	// index of a single Of.
	Shard Shard `json:"shard"`
	// NumCells and RunsPerCell describe the full (unsharded) matrix.
	NumCells    int `json:"numCells"`
	RunsPerCell int `json:"runsPerCell"`
	// Runs/Failures/Interrupted are this shard's folded totals.
	Runs        int `json:"runs"`
	Failures    int `json:"failures,omitempty"`
	Interrupted int `json:"interrupted,omitempty"`
	// Cells holds every cell this shard owns (including zero-run cells
	// of an interrupted shard), in ascending cell index order.
	Cells []ShardCell `json:"cells"`
}

// ShardCell is one cell's aggregate state in a shard file.
type ShardCell struct {
	// Index is the cell's position in the full matrix's cell order.
	Index int `json:"index"`
	// Values are the cell's axis values rendered with FormatValue, in
	// axis order. Reports rebuilt from shard files carry these strings;
	// since every emission path (Table/CSV/JSON) renders values through
	// FormatValue — the identity on strings — output is byte-identical
	// to the original report's.
	Values []string `json:"values"`
	// Runs/Failures/FirstError mirror CellResult.
	Runs       int    `json:"runs"`
	Failures   int    `json:"failures,omitempty"`
	FirstError string `json:"firstError,omitempty"`
	// Observables are the exact accumulator states, bit-exact through
	// JSON (see stats.RunningState).
	Observables map[string]stats.RunningState `json:"observables,omitempty"`
	// Telemetry is the cell's folded telemetry block, if any.
	Telemetry map[string]float64 `json:"telemetry,omitempty"`
}

// shardCellState exports one CellResult as a ShardCell.
func shardCellState(index int, c *CellResult) ShardCell {
	sc := ShardCell{
		Index:      index,
		Values:     make([]string, c.Cell.Len()),
		Runs:       c.Runs,
		Failures:   c.Failures,
		FirstError: c.FirstError,
	}
	for i := 0; i < c.Cell.Len(); i++ {
		sc.Values[i] = FormatValue(c.Cell.Value(i))
	}
	if len(c.obs) > 0 {
		sc.Observables = make(map[string]stats.RunningState, len(c.obs))
		for k, r := range c.obs {
			sc.Observables[k] = r.State()
		}
	}
	if len(c.Telemetry) > 0 {
		sc.Telemetry = make(map[string]float64, len(c.Telemetry))
		for k, v := range c.Telemetry {
			sc.Telemetry[k] = v
		}
	}
	return sc
}

// validate rejects counts and accumulator states no campaign produces:
// negative run counts, and negative n or m2 (the sum of squared
// deviations), which would render as NaN confidence intervals.
func (sc *ShardCell) validate() error {
	if sc.Runs < 0 || sc.Failures < 0 {
		return fmt.Errorf("negative run count (%d runs, %d failures)", sc.Runs, sc.Failures)
	}
	for _, k := range sortedKeys(sc.Observables) {
		if st := sc.Observables[k]; st.N < 0 || st.M2 < 0 {
			return fmt.Errorf("observable %q has impossible state n=%d m2=%v", k, st.N, st.M2)
		}
	}
	return nil
}

// restoreInto loads the shard cell's state into a CellResult that was
// freshly allocated by newReport (empty aggregates, correct Cell).
func (sc *ShardCell) restoreInto(c *CellResult) {
	c.Runs = sc.Runs
	c.Failures = sc.Failures
	c.FirstError = sc.FirstError
	for _, k := range sortedKeys(sc.Observables) {
		r := stats.Restore(sc.Observables[k])
		c.obs[k] = &r
	}
	if len(sc.Telemetry) > 0 {
		c.Telemetry = make(map[string]float64, len(sc.Telemetry))
		for k, v := range sc.Telemetry {
			c.Telemetry[k] = v
		}
	}
}

// BuildShardFile exports a report's shard-owned cells as a ShardFile.
// The report must carry its shard coordinates (Execute stamps them).
func BuildShardFile(rep *Report) *ShardFile {
	sh := rep.Shard.norm()
	lo, hi := sh.CellRange(len(rep.Cells))
	f := &ShardFile{
		Version:     ShardFileVersion,
		Campaign:    rep.Name,
		Axes:        rep.Axes,
		Fingerprint: rep.Fingerprint,
		Shard:       sh,
		NumCells:    len(rep.Cells),
		RunsPerCell: rep.RunsPerCell,
		Runs:        rep.Runs,
		Failures:    rep.Failures,
		Interrupted: rep.Interrupted,
		Cells:       make([]ShardCell, 0, hi-lo),
	}
	for ci := lo; ci < hi; ci++ {
		f.Cells = append(f.Cells, shardCellState(ci, rep.Cells[ci]))
	}
	return f
}

// WriteShardFile atomically writes the report's shard result file
// (indented JSON via a same-directory temp file + rename).
func WriteShardFile(path string, rep *Report) error {
	data, err := json.MarshalIndent(BuildShardFile(rep), "", "  ")
	if err != nil {
		return fmt.Errorf("campaign: shard file: %w", err)
	}
	return writeFileAtomic(path, append(data, '\n'))
}

// ReadShardFile reads and version-checks one shard result file.
func ReadShardFile(path string) (*ShardFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("campaign: shard file: %w", err)
	}
	var f ShardFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("campaign: shard file %s: %w", path, err)
	}
	if f.Version != ShardFileVersion {
		return nil, fmt.Errorf("campaign: shard file %s: version %d, this build reads %d",
			path, f.Version, ShardFileVersion)
	}
	return &f, nil
}

// MergeGaps accounts for the shards absent from a partial merge: which
// indices are missing and exactly how many cells and runs they own
// (computable from the cell-range arithmetic alone, so the accounting
// is exact even though the missing files were never seen).
type MergeGaps struct {
	// Of is the shard count of the set being merged.
	Of int
	// Missing lists the absent shard indices, ascending.
	Missing []int
	// MissingCells and MissingRuns total the matrix cells and runs the
	// missing shards own.
	MissingCells int
	MissingRuns  int
}

// Complete reports whether the merge covered every shard.
func (g *MergeGaps) Complete() bool { return len(g.Missing) == 0 }

// MergeReports folds a complete set of shard files (one per index of
// the same Of, any argument order) back into a single Report.
//
// Determinism contract: with cell-granular sharding each matrix cell's
// whole aggregate lives in exactly one file, so the merged report's
// Table/CSV/JSON output is byte-identical to the unsharded run's — the
// merge only re-assembles disjoint state, every float round-trips
// bit-exactly through stats.RunningState, and cell axis values render
// through FormatValue on both paths. Shards interrupted mid-campaign
// merge too (their zero-run cells stay zero-run, Interrupted sums), so
// partial sweeps still produce a coherent partial report.
//
// Validation is strict: impossible shard coordinates or matrix shape, a
// duplicate shard index, a file whose cells are not exactly the ones its
// shard owns, two files claiming the same cell (overlapping cell
// ranges), a campaign/axis/shape mismatch, or disagreeing matrix
// fingerprints each return a descriptive error —
// these only arise from mixing files of different campaigns or from
// corruption, and folding them would produce silently wrong aggregates.
func MergeReports(files ...*ShardFile) (*Report, error) {
	if len(files) == 0 {
		return nil, fmt.Errorf("campaign: merge: no shard files")
	}
	of := files[0].Shard.norm().Of
	if len(files) != of {
		return nil, fmt.Errorf("campaign: merge: got %d files for %d shards", len(files), of)
	}
	rep, gaps, err := MergeAvailable(files...)
	if err != nil {
		return nil, err
	}
	for _, i := range gaps.Missing {
		return nil, fmt.Errorf("campaign: merge: missing shard %d/%d", i, of)
	}
	return rep, nil
}

// MergeAvailable folds an incomplete shard set — every file present must
// still validate exactly as in MergeReports, but absent shards are
// tolerated and accounted in the returned MergeGaps instead of erroring.
// This is the graceful-degradation path: a coordinator whose shards
// exhausted their retry budgets still merges what completed.
//
// The partial report's Cells hold only the covered cells (in ascending
// cell-index order); a complete set yields the same report MergeReports
// would. Partial reports are terminal — they render (Table/CSV/JSON)
// but must not be re-exported as shard files.
func MergeAvailable(files ...*ShardFile) (*Report, *MergeGaps, error) {
	if len(files) == 0 {
		return nil, nil, fmt.Errorf("campaign: merge: no shard files")
	}
	first := files[0]
	// Shard files come from disk, so every coordinate is checked before
	// it sizes or indexes anything below.
	for _, f := range files {
		if err := f.Shard.Validate(); err != nil {
			return nil, nil, fmt.Errorf("campaign: merge: %w", err)
		}
	}
	of := first.Shard.norm().Of
	if first.NumCells < 0 || first.RunsPerCell < 0 || first.NumCells > math.MaxInt/of {
		return nil, nil, fmt.Errorf("campaign: merge: impossible matrix shape (%d×%d cells×runs in %d shards)",
			first.NumCells, first.RunsPerCell, of)
	}
	fingerprint := ""
	seen := make([]bool, of)
	for _, f := range files {
		if f.Version != ShardFileVersion {
			return nil, nil, fmt.Errorf("campaign: merge: shard file version %d, this build reads %d",
				f.Version, ShardFileVersion)
		}
		if f.Campaign != first.Campaign {
			return nil, nil, fmt.Errorf("campaign: merge: campaign %q vs %q", f.Campaign, first.Campaign)
		}
		if strings.Join(f.Axes, "\x00") != strings.Join(first.Axes, "\x00") {
			return nil, nil, fmt.Errorf("campaign: merge: axis mismatch (%v vs %v)", f.Axes, first.Axes)
		}
		if f.NumCells != first.NumCells || f.RunsPerCell != first.RunsPerCell {
			return nil, nil, fmt.Errorf("campaign: merge: matrix shape mismatch (%d×%d vs %d×%d cells×runs)",
				f.NumCells, f.RunsPerCell, first.NumCells, first.RunsPerCell)
		}
		if f.Fingerprint != "" {
			if fingerprint == "" {
				fingerprint = f.Fingerprint
			} else if f.Fingerprint != fingerprint {
				return nil, nil, fmt.Errorf("campaign: merge: shard %s has matrix fingerprint %.12s…, other shards have %.12s… (same-named campaigns with different seeds or axis values?)",
					f.Shard.norm(), f.Fingerprint, fingerprint)
			}
		}
		sh := f.Shard.norm()
		if sh.Of != of {
			return nil, nil, fmt.Errorf("campaign: merge: shard %s does not belong to a %d-way split", sh, of)
		}
		if seen[sh.Index] {
			return nil, nil, fmt.Errorf("campaign: merge: duplicate shard %s", sh)
		}
		seen[sh.Index] = true
	}

	// Merge in ascending shard index order: cell ranges ascend with the
	// shard index, so the covered cells come out in cell-index order.
	sorted := append([]*ShardFile{}, files...)
	sort.Slice(sorted, func(i, j int) bool {
		return sorted[i].Shard.norm().Index < sorted[j].Shard.norm().Index
	})

	rep := &Report{
		Name:        first.Campaign,
		Axes:        first.Axes,
		RunsPerCell: first.RunsPerCell,
		Fingerprint: fingerprint,
	}
	for _, f := range sorted {
		sh := f.Shard.norm()
		lo, hi := sh.CellRange(first.NumCells)
		// A shard file carries exactly the cells its shard owns, zero-run
		// ones included; anything else is corruption, not a gap. Checking
		// the count first keeps the merge's memory bounded by its input.
		if len(f.Cells) != hi-lo {
			return nil, nil, fmt.Errorf("campaign: merge: shard %s carries %d cells, owns %d (corrupt shard set)",
				sh, len(f.Cells), hi-lo)
		}
		rep.Runs += f.Runs
		rep.Failures += f.Failures
		rep.Interrupted += f.Interrupted
		owned := make([]*CellResult, hi-lo)
		for i := range f.Cells {
			sc := &f.Cells[i]
			if sc.Index < lo || sc.Index >= hi {
				if other := ownerOf(sc.Index, first.NumCells, of); other >= 0 && seen[other] {
					return nil, nil, fmt.Errorf("campaign: merge: shards %s and %s both claim cell %d (overlapping cell ranges; mixed or corrupt shard set)",
						Shard{Index: other, Of: of}, sh, sc.Index)
				}
				return nil, nil, fmt.Errorf("campaign: merge: shard %s cell index %d outside its range [%d,%d)",
					sh, sc.Index, lo, hi)
			}
			if len(sc.Values) != len(first.Axes) {
				return nil, nil, fmt.Errorf("campaign: merge: shard %s cell %d has %d values for %d axes",
					sh, sc.Index, len(sc.Values), len(first.Axes))
			}
			if err := sc.validate(); err != nil {
				return nil, nil, fmt.Errorf("campaign: merge: shard %s cell %d: %w", sh, sc.Index, err)
			}
			if owned[sc.Index-lo] != nil {
				return nil, nil, fmt.Errorf("campaign: merge: shard %s lists cell %d twice (corrupt shard set)", sh, sc.Index)
			}
			c := &CellResult{
				Cell: cellFromStrings(first.Axes, sc.Values),
				obs:  map[string]*stats.Running{},
			}
			sc.restoreInto(c)
			owned[sc.Index-lo] = c
		}
		rep.Cells = append(rep.Cells, owned...)
	}

	gaps := &MergeGaps{Of: of}
	for i, ok := range seen {
		if !ok {
			lo, hi := (Shard{Index: i, Of: of}).CellRange(first.NumCells)
			gaps.Missing = append(gaps.Missing, i)
			gaps.MissingCells += hi - lo
			gaps.MissingRuns += (hi - lo) * first.RunsPerCell
		}
	}
	return rep, gaps, nil
}

// ownerOf returns the shard of an of-way split that owns cell i of
// numCells, or -1 when i is outside the matrix. It inverts CellRange:
// the owner is the largest idx with idx*numCells/of <= i.
func ownerOf(i, numCells, of int) int {
	if i < 0 || i >= numCells {
		return -1
	}
	return ((i+1)*of - 1) / numCells
}

// cellFromStrings rebuilds a Cell from canonical formatted values.
// FormatValue is the identity on strings, so a rebuilt cell renders
// byte-identically to the original in every emission path.
func cellFromStrings(names []string, values []string) Cell {
	vs := make([]any, len(values))
	for i, v := range values {
		vs[i] = v
	}
	return Cell{names: names, values: vs}
}

// writeFileAtomic writes data to path via a same-directory temp file,
// fsync, and rename, so readers (and crash recovery) only ever observe
// the old or the complete new content.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	return nil
}
