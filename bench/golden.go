package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
)

// goldenJSON holds one output digest per op for every workload, keyed by
// workload name and then op key. -update-golden rewrites it; regenerate it
// only from a commit whose outputs are known to be right (the parent of
// the change under test), never to make a change pass.
//
//go:embed golden.json
var goldenJSON []byte

// goldenPath is where -update-golden writes, relative to the repository
// root the benchmark runs from.
const goldenPath = "bench/golden.json"

func loadGolden() (map[string]map[string]string, error) {
	var g map[string]map[string]string
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

func writeGolden(g map[string]map[string]string) error {
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath, append(b, '\n'), 0o644)
}

// digest is a short content hash: 64 bits of SHA-256 are plenty to tell
// one output from another.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

func digestJSON(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	return digest(b), nil
}

// checkOps counts the failed ops: an op fails when it returned an error
// or its output digest differs from the golden one. The first few
// failures are described on stderr.
func checkOps(ops []opResult, golden map[string]string) int {
	failed := 0
	for _, op := range ops {
		var why string
		switch want, ok := golden[op.key]; {
		case op.err != nil:
			why = op.err.Error()
		case !ok:
			why = "no golden digest"
		case op.digest != want:
			why = fmt.Sprintf("digest %s, golden %s", op.digest, want)
		default:
			continue
		}
		if failed++; failed <= 5 {
			fmt.Fprintf(os.Stderr, "bench: op %s failed: %s\n", op.key, why)
		}
	}
	return failed
}
