package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// The loader type-checks stdlib dependencies from source, which is the
// expensive part; share one loader (and its package memo) across every
// test in the binary.
var (
	loaderOnce sync.Once
	sharedL    *Loader
	loaderErr  error
)

func testLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		sharedL, loaderErr = NewLoader(".")
	})
	if loaderErr != nil {
		t.Fatalf("NewLoader: %v", loaderErr)
	}
	return sharedL
}

func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	l := testLoader(t)
	p, err := l.LoadDir(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", name, err)
	}
	if errs := l.Errors(); len(errs) > 0 {
		t.Fatalf("fixture %s has type errors: %v", name, errs)
	}
	return p
}

// wantRe matches one or more quoted expectation fragments after
// "// want".
var (
	wantRe = regexp.MustCompile(`// want ((?:"[^"]*"\s*)+)`)
	fragRe = regexp.MustCompile(`"([^"]*)"`)
)

// parseWants returns line -> expected message fragments for every
// fixture source file in dir.
func parseWants(t *testing.T, dir string) map[string][]string {
	t.Helper()
	wants := make(map[string][]string) // "file:line" -> fragments
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		abs, err := filepath.Abs(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			key := abs + ":" + itoa(i+1)
			for _, frag := range fragRe.FindAllStringSubmatch(m[1], -1) {
				wants[key] = append(wants[key], frag[1])
			}
		}
	}
	return wants
}

func itoa(n int) string {
	digits := "0123456789"
	if n == 0 {
		return "0"
	}
	var out []byte
	for n > 0 {
		out = append([]byte{digits[n%10]}, out...)
		n /= 10
	}
	return string(out)
}

// TestGolden runs each check against its fixture package and compares
// the findings against the fixture's // want annotations: every
// finding must match a fragment on its exact file:line, and every
// fragment must be consumed. The //lint:allow sites in each fixture
// carry no want and therefore also assert the suppression path.
func TestGolden(t *testing.T) {
	for _, check := range Checks() {
		check := check
		t.Run(check.Name, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", check.Name)
			p := loadFixture(t, check.Name)
			wants := parseWants(t, dir)
			findings := Analyze([]*Package{p}, []Check{check})

			matched := make(map[string]int) // key -> fragments consumed
			for _, f := range findings {
				if f.Check != check.Name {
					t.Errorf("unexpected check name %q in finding %s", f.Check, f)
					continue
				}
				if f.Pos.Column <= 0 {
					t.Errorf("finding without column: %s", f)
				}
				key := f.Pos.Filename + ":" + itoa(f.Pos.Line)
				frags := wants[key]
				if matched[key] >= len(frags) {
					t.Errorf("unexpected finding: %s", f)
					continue
				}
				frag := frags[matched[key]]
				if !strings.Contains(f.Message, frag) {
					t.Errorf("finding %s does not contain want fragment %q", f, frag)
				}
				matched[key]++
			}
			for key, frags := range wants {
				if matched[key] != len(frags) {
					t.Errorf("line %s: expected %d finding(s), got %d", key, len(frags), matched[key])
				}
			}
		})
	}
}

// TestAllowDirectiveValidation checks that malformed //lint:allow
// directives are themselves reported even with no checks enabled.
func TestAllowDirectiveValidation(t *testing.T) {
	p := loadFixture(t, "allowbad")
	findings := Analyze([]*Package{p}, nil)
	if len(findings) != 2 {
		t.Fatalf("want 2 directive findings, got %d: %v", len(findings), findings)
	}
	if !strings.Contains(findings[0].Message, "malformed directive") {
		t.Errorf("first finding should be the reason-less directive: %s", findings[0])
	}
	if !strings.Contains(findings[1].Message, "unknown check nosuchcheck") {
		t.Errorf("second finding should be the unknown check: %s", findings[1])
	}
	for _, f := range findings {
		if f.Check != "allow" {
			t.Errorf("directive findings carry check name %q, want allow: %s", f.Check, f)
		}
	}
}

// TestStaleAllowAudit checks both halves of the stale-suppression
// audit: a directive that suppresses nothing for a check that ran is
// reported, and directives for checks that did NOT run are left alone
// (a partial invocation must not condemn annotations it never
// exercised — TestAllowDirectiveValidation relies on that too).
func TestStaleAllowAudit(t *testing.T) {
	p := loadFixture(t, "allowstale")
	findings := Analyze([]*Package{p}, []Check{lockholdCheck()})
	if len(findings) != 1 {
		t.Fatalf("want exactly the stale-directive finding, got %d: %v", len(findings), findings)
	}
	f := findings[0]
	if f.Check != "allow" {
		t.Errorf("stale finding carries check %q, want allow: %s", f.Check, f)
	}
	if !strings.Contains(f.Message, "stale directive") || !strings.Contains(f.Message, "lockhold") {
		t.Errorf("stale finding should name the directive and check: %s", f)
	}
	if got := Analyze([]*Package{p}, nil); len(got) != 0 {
		t.Errorf("audit must stay quiet when the named check did not run, got %v", got)
	}
}

// TestFindingFormat pins the canonical output shape the CI gate greps.
func TestFindingFormat(t *testing.T) {
	p := loadFixture(t, "globalrand")
	findings := Analyze([]*Package{p}, []Check{globalrandCheck()})
	if len(findings) == 0 {
		t.Fatal("globalrand fixture produced no findings")
	}
	s := findings[0].String()
	re := regexp.MustCompile(`^.+\.go:\d+:\d+: \[globalrand\] .+$`)
	if !re.MatchString(s) {
		t.Fatalf("finding %q does not match file:line:col: [check] message", s)
	}
}

// TestTreeClean is the in-process version of `make lint`: the real
// tree must produce zero findings (every true positive found while
// building the linter was fixed, not allowlisted — see DESIGN.md).
func TestTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module load skipped in -short")
	}
	l := testLoader(t)
	pkgs, err := l.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if errs := l.Errors(); len(errs) > 0 {
		t.Fatalf("module has type errors: %v", errs[0])
	}
	findings := Analyze(pkgs, Checks())
	for _, f := range findings {
		t.Errorf("unexpected finding on the tree: %s", f)
	}
}

// TestDESClockedDetection pins which packages the wallclock check
// covers: simclock itself, its direct importers, and the clock-agnostic
// lineage store.
func TestDESClockedDetection(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module load skipped in -short")
	}
	l := testLoader(t)
	pkgs, err := l.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	des := make(map[string]bool)
	for _, p := range pkgs {
		if desClocked(p) {
			des[p.Path] = true
		}
	}
	for _, want := range []string{
		"stellaris/internal/simclock",
		"stellaris/internal/core",
		"stellaris/internal/serverless",
		"stellaris/internal/obs/lineage",
		"stellaris/internal/obs/fleet",
	} {
		if !des[want] {
			t.Errorf("%s should be DES-clocked", want)
		}
	}
	for _, not := range []string{"stellaris/internal/live", "stellaris/internal/cache"} {
		if des[not] {
			t.Errorf("%s must not be DES-clocked (it runs in real time)", not)
		}
	}
}
