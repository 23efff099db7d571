package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// defaultSeed is the seed the benchmark was tuned on; heldOutSeed was
// never used while tuning. Digests are stored for both and for the
// other seeds in digestsFile.
const (
	defaultSeed = 1
	heldOutSeed = 7
)

const digestsFile = "testdata/digests.json"

// storedDigests maps workload -> seed -> SHA-256 of the full-size
// campaign report's JSON bytes (campaign.Report.JSON).
//
//go:embed testdata/digests.json
var storedDigestsJSON []byte

var storedDigests = func() map[string]map[string]string {
	m := map[string]map[string]string{}
	if err := json.Unmarshal(storedDigestsJSON, &m); err != nil {
		panic("jtpbench: corrupt " + digestsFile + ": " + err.Error())
	}
	return m
}()

// referenceDigest returns the digest every pass must reproduce: the
// stored one when the seed has one, else the first pass's (the run is
// then checked for agreement between passes and arms only).
func referenceDigest(workload string, seed int64, first string) (string, string) {
	if d, ok := storedDigests[workload][strconv.FormatInt(seed, 10)]; ok {
		if d == first {
			return d, "matches the stored digest"
		}
		return d, "stored digest"
	}
	return first, "no stored digest for this seed; passes checked against each other"
}

// recordDigests recomputes the stored digests of the named workload
// (every workload when name is empty) for a seed range "lo-hi" and
// rewrites digestsFile (run from the jtpbench directory).
func recordDigests(name, spec string) error {
	lo, hi, ok := strings.Cut(spec, "-")
	if !ok {
		hi = lo
	}
	a, err := strconv.ParseInt(lo, 10, 64)
	if err != nil {
		return fmt.Errorf("record-digests: %w", err)
	}
	b, err := strconv.ParseInt(hi, 10, 64)
	if err != nil {
		return fmt.Errorf("record-digests: %w", err)
	}
	out := storedDigests
	for _, w := range workloads {
		if name != "" && name != w.name {
			continue
		}
		out[w.name] = map[string]string{}
		for seed := a; seed <= b; seed++ {
			p, err := w.plan(seed, full)
			if err != nil {
				return err
			}
			ps, err := p.execute(plain, nil)
			if err != nil {
				return err
			}
			if err := ps.report.Err(); err != nil {
				return err
			}
			out[w.name][strconv.FormatInt(seed, 10)] = ps.digest
			fmt.Printf("%s seed %d: %s\n", w.name, seed, ps.digest)
		}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(digestsFile, append(data, '\n'), 0o644)
}
