package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// The digest of a workload covers every simulated output of its first
// round (paper-quick: the tables; fwd-rss/chain-fdir: the netsim Results
// and LLC counters; kvs-serve: the version each reply carried). A change
// that only makes the program faster leaves it unchanged. It is a report,
// not a gate: a model change is allowed to move it, and then the
// reference is regenerated with
//
//	bash perfbench/run.sh --regen-digest
const (
	digestFile    = "reference_digests.json"
	referenceSeed = 1
)

type digestDoc struct {
	Seed    int64             `json:"seed"`
	Digests map[string]string `json:"digests"`
}

// reportDigest prints the run's digest and, when the run used the
// reference seed, whether it matches the recorded reference.
func reportDigest(e *env, workload, digest string) {
	verdict := fmt.Sprintf("not compared (reference is for seed %d)", referenceSeed)
	if e.seed == referenceSeed {
		doc, err := readDigests(filepath.Join(e.root, "perfbench", digestFile))
		switch ref, ok := doc.Digests[workload]; {
		case err != nil:
			verdict = fmt.Sprintf("not compared (%v)", err)
		case !ok:
			verdict = "not compared (no reference recorded)"
		case ref == digest:
			verdict = "matches the reference"
		default:
			verdict = "DIFFERS from the reference " + ref + " (the simulated outputs changed)"
		}
	}
	fmt.Fprintf(e.out, "# digest %s seed=%d %s: %s\n", workload, e.seed, digest, verdict)
}

func readDigests(path string) (digestDoc, error) {
	var doc digestDoc
	b, err := os.ReadFile(path)
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return doc, fmt.Errorf("%s: %w", path, err)
	}
	if doc.Seed != referenceSeed {
		return doc, fmt.Errorf("%s records seed %d, want %d", path, doc.Seed, referenceSeed)
	}
	return doc, nil
}

// regenDigests runs every workload once at the reference seed with the
// shortest measured interval and rewrites the reference file.
func regenDigests(e *env, path string) error {
	e.seed, e.seconds, e.out = referenceSeed, 0.001, os.Stderr
	doc := digestDoc{Seed: referenceSeed, Digests: map[string]string{}}
	for _, name := range workloadNames() {
		out, err := workloads[name](e)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		for _, c := range out.checks {
			if c.err != nil {
				return fmt.Errorf("%s: check %s failed: %w", name, c.name, c.err)
			}
		}
		if out.digest == "" {
			return errors.New(name + ": no digest")
		}
		doc.Digests[name] = out.digest
		fmt.Fprintf(os.Stderr, "perfbench: %s digest %s\n", name, out.digest)
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
