package nvalloc

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// referringDocs are the documents that describe the code as it is now;
// EXPERIMENTS.md and CHANGES.md are ledgers and name what once was.
var referringDocs = []string{"README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"}

var (
	fenceRe    = regexp.MustCompile("(?ms)^```.*?^```")
	spanRe     = regexp.MustCompile("`([^`]+)`")
	testNameRe = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*`)
	testFuncRe = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	rangeRe    = regexp.MustCompile(`\{(\d+)\.\.(\d+)\}`)
)

// TestDocsReferToRealThings holds the documents' backticked references to
// the repository: a path or file name (a span ending in a source, data or
// doc extension, or starting with a top-level code directory) must exist —
// as a glob, with {a..b} ranges expanded, from the repository root, or as
// the trailing components of any file in it — and every TestX, BenchmarkX
// or FuzzX named in a span must be declared in some _test.go file.
func TestDocsReferToRealThings(t *testing.T) {
	var files []string
	funcs := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") && d.Name() != ".claude" && d.Name() != ".github" {
				return filepath.SkipDir
			}
			return nil
		}
		files = append(files, filepath.ToSlash(path))
		if strings.HasSuffix(path, "_test.go") {
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range testFuncRe.FindAllStringSubmatch(string(src), -1) {
				funcs[m[1]] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	exists := func(pattern string) bool {
		if m, _ := filepath.Glob(pattern); len(m) > 0 {
			return true
		}
		for _, f := range files {
			for rest := f; ; {
				if ok, _ := filepath.Match(pattern, rest); ok {
					return true
				}
				i := strings.IndexByte(rest, '/')
				if i < 0 {
					break
				}
				rest = rest[i+1:]
			}
		}
		return false
	}

	for _, doc := range referringDocs {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range spanRe.FindAllStringSubmatch(fenceRe.ReplaceAllString(string(src), ""), -1) {
			span := m[1]
			for _, name := range testNameRe.FindAllString(span, -1) {
				if !funcs[name] {
					t.Errorf("%s names `%s`: no _test.go file declares %s", doc, span, name)
				}
			}
			if !isRepoPath(span) {
				continue
			}
			for _, p := range expandRanges(strings.TrimSuffix(strings.TrimPrefix(span, "./"), "/")) {
				if !exists(p) {
					t.Errorf("%s names `%s`: %s is not in the repository", doc, span, p)
				}
			}
		}
	}
}

// isRepoPath reports whether a backticked span is a path or file name the
// repository should hold.
func isRepoPath(span string) bool {
	if strings.ContainsAny(span, " \t\n") {
		return false
	}
	for _, dir := range []string{"internal/", "cmd/", "examples/", "benchmark/", "results/"} {
		if strings.HasPrefix(strings.TrimPrefix(span, "./"), dir) {
			return true
		}
	}
	for _, ext := range []string{".go", ".json", ".csv", ".md", ".txt", ".yml", ".sh", ".py"} {
		if strings.HasSuffix(span, ext) {
			return true
		}
	}
	return false
}

// expandRanges expands the first {a..b} in a path, recursively.
func expandRanges(p string) []string {
	m := rangeRe.FindStringSubmatchIndex(p)
	if m == nil {
		return []string{p}
	}
	lo, _ := strconv.Atoi(p[m[2]:m[3]])
	hi, _ := strconv.Atoi(p[m[4]:m[5]])
	var out []string
	for i := lo; i <= hi; i++ {
		out = append(out, expandRanges(p[:m[0]]+strconv.Itoa(i)+p[m[1]:])...)
	}
	return out
}
