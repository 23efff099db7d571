package campaign

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io"
	"os"
)

// ErrCorruptCheckpoint marks a checkpoint file that exists but cannot be
// trusted: truncated or torn content (invalid JSON), an empty file, or
// structurally impossible state (frontier outside the shard, cell
// indices outside the matrix). Execute treats a corrupt checkpoint as a
// cold start with a warning — re-running the shard from scratch is
// always correct, resuming from garbage never is. A version mismatch or
// fingerprint mismatch is NOT corruption (the file is intact, it just
// belongs to another build or campaign) and stays a hard error.
var ErrCorruptCheckpoint = errors.New("corrupt checkpoint")

// Checkpoint is the durable resume state of one (possibly sharded)
// campaign execution: the aggregator's fold frontier plus the exact
// per-cell aggregate state at that frontier, written atomically every
// CheckpointEvery folds or CheckpointInterval seconds and once more
// when Execute returns (so a SIGTERM-cancelled shard loses at most the
// runs inside the reorder window — and those rerun on resume).
//
// The fold-frontier invariant: NextSeq is the count of shard-local runs
// whose results are folded into State; every run before the frontier is
// in, no run at or after it is. Because folding is strictly in-order,
// resuming means restoring State and dispatching the expanded run list
// from NextSeq — re-executed runs reuse their deterministic seeds, so a
// resumed campaign's final report is byte-identical to an uninterrupted
// one.
type Checkpoint struct {
	// Version is ShardFileVersion; readers reject anything else.
	Version int `json:"version"`
	// Fingerprint hashes the campaign identity: name, axes, run count,
	// shard coordinates, and the full expanded (index, cell, run, seed)
	// list of this shard — so a checkpoint can never silently resume a
	// different matrix, seed schedule, or shard assignment.
	Fingerprint string `json:"fingerprint"`
	// NextSeq is the fold frontier, in shard-local run positions.
	NextSeq int `json:"nextSeq"`
	// State is the per-cell aggregate at the frontier, in the shard
	// result schema.
	State ShardFile `json:"state"`
}

// LoadCheckpoint reads and version-checks a checkpoint file. A missing
// file returns (nil, nil): Execute treats that as a fresh start. A file
// that exists but does not parse — truncated by a torn write or a full
// disk, or otherwise mangled — returns an error wrapping
// ErrCorruptCheckpoint so callers can fall back to a cold start instead
// of failing (or worse, resuming wrong).
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("campaign: checkpoint: %w", err)
	}
	if len(data) == 0 {
		return nil, fmt.Errorf("campaign: checkpoint %s: empty file: %w", path, ErrCorruptCheckpoint)
	}
	var cp Checkpoint
	if err := json.Unmarshal(data, &cp); err != nil {
		return nil, fmt.Errorf("campaign: checkpoint %s: %v: %w", path, err, ErrCorruptCheckpoint)
	}
	if cp.Version != ShardFileVersion {
		return nil, fmt.Errorf("campaign: checkpoint %s: version %d, this build reads %d",
			path, cp.Version, ShardFileVersion)
	}
	return &cp, nil
}

// validate cross-checks the checkpoint's structure against the campaign
// it is about to resume: the frontier must lie inside the shard's run
// window, the recorded matrix geometry must match, the cells must be
// exactly the shard's owned range [lo,hi), each once, with the right
// axis arity, the run count the frontier implies and accumulator states
// that pass the same checks the shard merge applies, and the totals
// must equal the frontier and the cells' failures (so neither can be
// negative). Violations wrap ErrCorruptCheckpoint — they can only come
// from file damage that happened to survive the JSON and fingerprint
// checks, and resuming from them would index out of bounds or silently
// mis-fold.
func (cp *Checkpoint) validate(numCells, numAxes, runsPerCell, specsLen, lo, hi int) error {
	if cp.NextSeq < 0 || cp.NextSeq > specsLen {
		return fmt.Errorf("frontier %d outside [0,%d]: %w", cp.NextSeq, specsLen, ErrCorruptCheckpoint)
	}
	if cp.State.NumCells != numCells || cp.State.RunsPerCell != runsPerCell {
		return fmt.Errorf("state geometry %d×%d, campaign is %d×%d: %w",
			cp.State.NumCells, cp.State.RunsPerCell, numCells, runsPerCell, ErrCorruptCheckpoint)
	}
	if cp.State.Runs != cp.NextSeq {
		return fmt.Errorf("%d runs folded at frontier %d: %w", cp.State.Runs, cp.NextSeq, ErrCorruptCheckpoint)
	}
	if len(cp.State.Cells) != hi-lo {
		return fmt.Errorf("%d cells for the shard's %d: %w", len(cp.State.Cells), hi-lo, ErrCorruptCheckpoint)
	}
	seen := make([]bool, hi-lo)
	failures := 0
	for i := range cp.State.Cells {
		sc := &cp.State.Cells[i]
		if sc.Index < lo || sc.Index >= hi {
			return fmt.Errorf("cell index %d outside the shard's cells [%d,%d): %w", sc.Index, lo, hi, ErrCorruptCheckpoint)
		}
		if seen[sc.Index-lo] {
			return fmt.Errorf("cell %d listed twice: %w", sc.Index, ErrCorruptCheckpoint)
		}
		seen[sc.Index-lo] = true
		if len(sc.Values) != numAxes {
			return fmt.Errorf("cell %d has %d values for %d axes: %w",
				sc.Index, len(sc.Values), numAxes, ErrCorruptCheckpoint)
		}
		if err := sc.validate(); err != nil {
			return fmt.Errorf("cell %d: %v: %w", sc.Index, err, ErrCorruptCheckpoint)
		}
		// Folding is in order and cell-major, so the frontier fixes
		// every cell's run count: full before it, partial at it, zero
		// after it.
		want := min(max(cp.NextSeq-(sc.Index-lo)*runsPerCell, 0), runsPerCell)
		if sc.Runs != want || sc.Failures > sc.Runs {
			return fmt.Errorf("cell %d holds %d runs (%d failed), frontier %d implies %d: %w",
				sc.Index, sc.Runs, sc.Failures, cp.NextSeq, want, ErrCorruptCheckpoint)
		}
		failures += sc.Failures
	}
	if failures != cp.State.Failures {
		return fmt.Errorf("cells hold %d failures, totals say %d: %w", failures, cp.State.Failures, ErrCorruptCheckpoint)
	}
	return nil
}

// writeCheckpoint atomically persists the current fold frontier.
// Called under the aggregation lock: folding pauses while the state is
// serialized, which is the price of a frontier that exactly matches the
// persisted aggregates.
func writeCheckpoint(path, fingerprint string, nextSeq int, rep *Report) error {
	cp := Checkpoint{
		Version:     ShardFileVersion,
		Fingerprint: fingerprint,
		NextSeq:     nextSeq,
		State:       *BuildShardFile(rep),
	}
	data, err := json.Marshal(&cp)
	if err != nil {
		return fmt.Errorf("campaign: checkpoint: %w", err)
	}
	if err := writeFileAtomic(path, data); err != nil {
		return fmt.Errorf("campaign: checkpoint: %w", err)
	}
	return nil
}

// restore loads the checkpoint's aggregate state into a fresh report
// skeleton, returning the fold frontier to resume from.
func (cp *Checkpoint) restore(rep *Report) int {
	rep.Runs = cp.State.Runs
	rep.Failures = cp.State.Failures
	for i := range cp.State.Cells {
		sc := &cp.State.Cells[i]
		sc.restoreInto(rep.Cells[sc.Index])
	}
	return cp.NextSeq
}

// fingerprintHasher wraps a sha256 with length-prefixed primitive
// writers shared by the two campaign fingerprints.
type fingerprintHasher struct {
	h   hash.Hash
	buf [8]byte
}

func newFingerprintHasher() *fingerprintHasher {
	return &fingerprintHasher{h: sha256.New()}
}

func (f *fingerprintHasher) sum() []byte { return f.h.Sum(nil) }

func (f *fingerprintHasher) wInt(v int64) {
	binary.LittleEndian.PutUint64(f.buf[:], uint64(v))
	f.h.Write(f.buf[:])
}

func (f *fingerprintHasher) wStr(s string) {
	f.wInt(int64(len(s)))
	io.WriteString(f.h, s)
}

// writeMatrixIdentity hashes the matrix shape: name, axes (names and
// canonical values), and runs per cell.
func (f *fingerprintHasher) writeMatrixIdentity(m *Matrix) {
	f.wStr(m.Name)
	f.wInt(int64(len(m.Axes)))
	for _, ax := range m.Axes {
		f.wStr(ax.Name)
		f.wInt(int64(len(ax.Values)))
		for _, v := range ax.Values {
			f.wStr(FormatValue(v))
		}
	}
	f.wInt(int64(m.runsPerCell()))
}

// writeSpecs hashes an expanded run list, capturing BaseSeed and any
// custom SeedFn through the derived seeds.
func (f *fingerprintHasher) writeSpecs(specs []RunSpec) {
	f.wInt(int64(len(specs)))
	for i := range specs {
		f.wInt(int64(specs[i].Index))
		f.wInt(int64(specs[i].CellIndex))
		f.wInt(int64(specs[i].Run))
		f.wInt(specs[i].Seed)
	}
}

// campaignFingerprint hashes everything that must match for a
// checkpoint to be resumable: matrix identity, shard coordinates, and
// this shard's full expanded run list.
func campaignFingerprint(m *Matrix, sh Shard, specs []RunSpec) string {
	f := newFingerprintHasher()
	f.writeMatrixIdentity(m)
	sh = sh.norm()
	f.wInt(int64(sh.Index))
	f.wInt(int64(sh.Of))
	f.writeSpecs(specs)
	return hex.EncodeToString(f.sum())
}

// matrixFingerprint hashes the shard-independent campaign identity:
// matrix identity plus the FULL expanded run list (every shard of the
// same campaign derives the same value). Execute stamps it into the
// Report, shard files carry it, and MergeReports refuses to fold shard
// files whose fingerprints disagree — the guard against merging shards
// of same-named campaigns that differ in seeds or axis values.
func matrixFingerprint(m *Matrix, all []RunSpec) string {
	f := newFingerprintHasher()
	f.writeMatrixIdentity(m)
	f.writeSpecs(all)
	return hex.EncodeToString(f.sum())
}
