package crashmc

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// checkReport asserts a report — one sweep's, or a raced family's sweeps
// of every schedule — passed; on violation it writes a reproduction artifact
// (target, trace, seed, and per violation the kind of cut, schedule key
// and boundary provenance) and fails with the artifact path, so a CI log
// line is enough to replay the exact crash image locally.
func checkReport(t *testing.T, rep *Report, seed, tornSeed uint64) {
	t.Helper()
	if rep.Passed() {
		return
	}
	path, err := WriteRepro("", NewRepro(rep, seed, tornSeed))
	if err != nil {
		t.Errorf("%d oracle violations (repro write failed: %v)\n%s", rep.ViolationCount, err, rep)
		return
	}
	t.Errorf("%d oracle violations, repro: %s\n%s", rep.ViolationCount, path, rep)
}

// TestReproNamesTheCut: the artifact is read by a person with a CI log in
// hand, so it says what kind of crash made each image by name, and reads
// back to the same violations.
func TestReproNamesTheCut(t *testing.T) {
	rep := newReport("NVAlloc-LOG", "publish", CacheCut)
	rep.addViolation(Violation{Boundary: 7, Cut: CacheCut, Class: "wal-entry", Detail: "synthetic"})
	rep.addViolation(Violation{Boundary: 9, Cut: RecoveryCut, Detail: "synthetic"})
	path, err := WriteRepro(t.TempDir(), NewRepro(rep, 0, 0xB17))
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"Cut": "cache-cut"`, `"Cut": "recovery-crash"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("artifact lacks %s:\n%s", want, data)
		}
	}
	var back Repro
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Violations) != 2 || back.Violations[0] != rep.Violations[0] || back.Violations[1] != rep.Violations[1] {
		t.Errorf("artifact read back as %+v, wrote %+v", back.Violations, rep.Violations)
	}
	if err := json.Unmarshal([]byte(`{"violations":[{"Cut":"brownout"}]}`), &back); err == nil {
		t.Error("an unknown kind of cut parsed")
	}
}
