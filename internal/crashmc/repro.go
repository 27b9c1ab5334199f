package crashmc

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
)

// Repro is a self-contained, JSON-serializable reproduction recipe for
// an oracle violation: everything needed to rebuild the exact crash
// image — the target, the trace identity (name or generator seed), the
// torn seed, and the violating boundaries with their kind of cut,
// schedule key and flush-delta provenance. Harnesses write one per
// failing report instead of burying the coordinates in a test log.
type Repro struct {
	Target string `json:"target"`
	Trace  string `json:"trace"`
	// Seed regenerates a seeded trace (SmokeTrace/WorkloadTrace/the raced
	// families of Families); 0 for hand-built traces identified by name
	// alone.
	Seed uint64 `json:"seed,omitempty"`
	// TornSeed reproduces torn-line word masks.
	TornSeed   uint64      `json:"torn_seed,omitempty"`
	Violations []Violation `json:"violations"`
}

// ArtifactDirEnv names the environment variable that redirects repro
// artifacts; unset, they land in the OS temp directory.
const ArtifactDirEnv = "CRASHMC_ARTIFACT_DIR"

// WriteRepro serializes r into dir (or $CRASHMC_ARTIFACT_DIR, or the OS
// temp dir, when dir is empty) under a content-addressed name, and
// returns the written path. Failures to write never mask the underlying
// violation: callers report the error alongside the violations.
func WriteRepro(dir string, r *Repro) (string, error) {
	if dir == "" {
		dir = os.Getenv(ArtifactDirEnv)
	}
	if dir == "" {
		dir = os.TempDir()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	h := fnv.New64a()
	h.Write(b)
	name := fmt.Sprintf("crashmc-repro-%s-%s-%x.json", sanitize(r.Target), sanitize(r.Trace), h.Sum64())
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// NewRepro builds a Repro from a failed report — one sweep's, or a raced
// family's sweeps of every schedule; each violation carries the schedule
// key it was found under.
func NewRepro(rep *Report, seed, tornSeed uint64) *Repro {
	return &Repro{
		Target:     rep.Target,
		Trace:      rep.Trace,
		Seed:       seed,
		TornSeed:   tornSeed,
		Violations: rep.Violations,
	}
}

func sanitize(s string) string {
	return strings.Map(func(c rune) rune {
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '-' || c == '_' {
			return c
		}
		return '_'
	}, s)
}
