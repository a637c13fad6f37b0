package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// runCLIEnv makes the test binary behave as the fuzzyphase command, so the
// tests below drive the real main (flag parsing, exit codes, stdout and
// stderr) without building a separate binary.
const runCLIEnv = "FUZZYPHASE_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runCLIEnv) == "1" {
		os.Args = append([]string{"fuzzyphase"}, os.Args[1:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI runs the CLI with args and returns its stdout, stderr and
// exit code.
func runCLI(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runCLIEnv+"=1", "FUZZYPHASE_PROFILE_DIR=")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exit):
		code = exit.ExitCode()
	default:
		t.Fatalf("running fuzzyphase %v: %v", args, err)
	}
	return out.String(), errb.String(), code
}

// verdict is the part of an analysis both `run` and `analyze-profile`
// print: EIPV count, CPI variance, RE_kopt, k and quadrant.
type verdict struct{ eipvs, variance, re, k, quadrant string }

var (
	runRE = regexp.MustCompile(`(?s): (\d+) steady-state EIPVs, .*CPI variance ([\d.]+)\n` +
		`\s+RE_kopt ([\d.]+) at k=(\d+) .*\n\s+quadrant (Q-[IV]+) `)
	offlineRE = regexp.MustCompile(`^\S+ \(offline\): (\d+) EIPVs, CPI variance ([\d.]+), ` +
		`RE_kopt ([\d.]+) at k=(\d+) -> (Q-[IV]+)\n$`)
)

func parseVerdict(t *testing.T, re *regexp.Regexp, out string) verdict {
	t.Helper()
	m := re.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("output does not match %v:\n%s", re, out)
	}
	return verdict{m[1], m[2], m[3], m[4], m[5]}
}

// TestAnalyzeProfileHonorsAnalysisFlags: a profile saved and re-analyzed
// offline gives the same verdict as `run` under the same non-default
// analysis flags, so those flags reach the offline pipeline.
func TestAnalyzeProfileHonorsAnalysisFlags(t *testing.T) {
	flags := []string{"-intervals", "60", "-max-leaves", "5", "-folds", "4", "-warmup", "20"}
	path := filepath.Join(t.TempDir(), "gzip.fzp")

	out, stderr, code := runCLI(t, append([]string{"save-profile", "spec.gzip", path}, flags...)...)
	if code != 0 || !strings.HasPrefix(out, "wrote ") {
		t.Fatalf("save-profile: exit %d, stdout %q, stderr %q", code, out, stderr)
	}
	out, stderr, code = runCLI(t, append([]string{"analyze-profile", path}, flags...)...)
	if code != 0 {
		t.Fatalf("analyze-profile: exit %d, stderr %q", code, stderr)
	}
	offline := parseVerdict(t, offlineRE, out)

	out, stderr, code = runCLI(t, append([]string{"run", "spec.gzip"}, flags...)...)
	if code != 0 {
		t.Fatalf("run: exit %d, stderr %q", code, stderr)
	}
	if live := parseVerdict(t, runRE, out); offline != live {
		t.Fatalf("analyze-profile verdict %+v differs from run's %+v", offline, live)
	}
}

// TestAnalyzeProfileRejectsForeignFile: a file that is not an FZPR
// profile — here the retired JSON profile header with a negative sample
// count — is a one-line error and exit 1, not a panic.
func TestAnalyzeProfileRejectsForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.json")
	header := `{"magic":"fuzzyphase-profile","version":2,"workload":"x","machine":"m","period":1,"samples":-1}` + "\n"
	if err := os.WriteFile(path, []byte(header), 0o644); err != nil {
		t.Fatal(err)
	}
	out, stderr, code := runCLI(t, "analyze-profile", path)
	if code != 1 {
		t.Fatalf("exit %d, want 1 (stderr %q)", code, stderr)
	}
	if out != "" {
		t.Errorf("stdout %q, want empty", out)
	}
	if !strings.HasPrefix(stderr, "fuzzyphase: ") || strings.Count(stderr, "\n") != 1 || strings.Contains(stderr, "goroutine") {
		t.Fatalf("stderr %q, want one fuzzyphase: error line and no goroutine dump", stderr)
	}
}

// goroutineDump matches the header of a panic's goroutine trace.
var goroutineDump = regexp.MustCompile(`(?m)^(panic: |goroutine \d+ \[)`)

// TestNegativeMaxLeavesIsUsageError: a negative -max-leaves is rejected
// while the flags are parsed (exit 2 with one error line), instead of
// reaching cross-validation and crashing with a goroutine dump.
func TestNegativeMaxLeavesIsUsageError(t *testing.T) {
	for _, cmd := range []string{"run", "compare-kmeans"} {
		out, stderr, code := runCLI(t, cmd, "spec.gzip", "-max-leaves", "-3")
		if code != 2 || out != "" {
			t.Errorf("%s: exit %d, stdout %q; want exit 2 and no output", cmd, code, out)
		}
		if n := strings.Count(stderr, "max-leaves: -3 is negative"); n != 1 || goroutineDump.MatchString(stderr) {
			t.Errorf("%s: stderr has %d error lines (want 1) or a goroutine dump:\n%s", cmd, n, stderr)
		}
	}
}

// TestGoldenOutput runs each analysis subcommand at a small interval count
// and compares its stdout with testdata/. The files were captured before
// the default workload lists moved into one table, so they also pin each
// default list. A change that alters an output on purpose regenerates the
// file by hand and says so.
func TestGoldenOutput(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"compare-kmeans.txt", []string{"compare-kmeans", "-intervals", "40"}},
		{"compare-bbv.txt", []string{"compare-bbv", "-intervals", "40"}},
		{"sampling.txt", []string{"sampling", "-intervals", "40"}},
		{"sweep-interval.txt", []string{"sweep-interval", "-intervals", "40"}},
		{"sweep-machine.txt", []string{"sweep-machine", "-intervals", "40"}},
		{"explain.txt", []string{"explain", "odb-h.q13", "-intervals", "40"}},
		{"table1.txt", []string{"table", "1"}},
		{"figure13.txt", []string{"figure", "13"}},
	} {
		t.Run(tc.args[0], func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			out, stderr, code := runCLI(t, tc.args...)
			if code != 0 {
				t.Fatalf("exit %d, stderr %q", code, stderr)
			}
			if out != string(want) {
				t.Errorf("stdout differs from testdata/%s:\n%s", tc.golden, out)
			}
		})
	}

	// Every figure's full stdout, text and CSV, is pinned by its SHA-256 in
	// testdata/figures-sha256.txt (one "<hash>  <args>" line per command),
	// since results/ keeps only a line or two of most figures and no CSV.
	sums, err := os.ReadFile(filepath.Join("testdata", "figures-sha256.txt"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(sums)), "\n") {
		hash, args, _ := strings.Cut(line, "  ")
		want[args] = hash
	}
	for id := 2; id <= 12; id++ {
		for _, csv := range []bool{false, true} {
			args := []string{"figure", strconv.Itoa(id), "-intervals", "40", "-warmup", "4"}
			name := "figure" + args[1]
			if csv {
				if !figureHasCSV[id] {
					continue
				}
				args = append(args, "-csv")
				name += "-csv"
			}
			t.Run(name, func(t *testing.T) {
				hash, ok := want[strings.Join(args, " ")]
				if !ok {
					t.Fatalf("testdata/figures-sha256.txt has no line for %q", strings.Join(args, " "))
				}
				out, stderr, code := runCLI(t, args...)
				if code != 0 {
					t.Fatalf("exit %d, stderr %q", code, stderr)
				}
				if got := fmt.Sprintf("%x", sha256.Sum256([]byte(out))); got != hash {
					t.Errorf("stdout SHA-256 %s, want %s:\n%s", got, hash, out)
				}
			})
		}
	}
	t.Run("figure4-csv-error", func(t *testing.T) {
		out, stderr, code := runCLI(t, "figure", "4", "-csv", "-intervals", "40", "-warmup", "4")
		const msg = "fuzzyphase: no CSV form for figure 4 (available: 2, 3, 8, 9, 10, 11)\n"
		if code != 1 || out != "" || stderr != msg {
			t.Errorf("exit %d, stdout %q, stderr %q; want exit 1, no output and %q", code, out, stderr, msg)
		}
	})
}

// figureHasCSV lists the figures whose raw data `figure N -csv` writes.
var figureHasCSV = map[int]bool{2: true, 3: true, 8: true, 9: true, 10: true, 11: true}

// TestUsageErrors locks each CLI misuse to its exit code and message:
// a wrong number of positional arguments or an unknown command is a usage
// error (exit 2, usage text on stderr); a malformed or unknown figure or
// table number is a runtime error (exit 1, one line that carries the
// fuzzyphase: prefix once).
// compare-kmeans and compare-bbv take any number of workloads, so they
// have no wrong count.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		msg  string // expected in stderr
	}{
		{nil, 2, "usage: "},
		{[]string{"no-such-command"}, 2, "usage: "},
		{[]string{"list", "x"}, 2, "usage: "},
		{[]string{"run"}, 2, "usage: "},
		{[]string{"run", "a", "b"}, 2, "usage: "},
		{[]string{"explain"}, 2, "usage: "},
		{[]string{"explain", "a", "b"}, 2, "usage: "},
		{[]string{"figure"}, 2, "usage: "},
		{[]string{"figure", "2", "3"}, 2, "usage: "},
		{[]string{"table"}, 2, "usage: "},
		{[]string{"table", "1", "2"}, 2, "usage: "},
		{[]string{"save-profile", "spec.gzip"}, 2, "usage: "},
		{[]string{"analyze-profile"}, 2, "usage: "},
		{[]string{"export", "spec.gzip"}, 2, "usage: "},
		{[]string{"import"}, 2, "usage: "},
		{[]string{"sampling", "10", "20"}, 2, "usage: "},
		{[]string{"results", "a", "b"}, 2, "usage: "},
		{[]string{"sweep-interval", "x"}, 2, "usage: "},
		{[]string{"sweep-machine", "x"}, 2, "usage: "},
		{[]string{"serve", "x"}, 2, "usage: "},
		{[]string{"figure", "abc"}, 1, `expected a number, got "abc"`},
		{[]string{"figure", "99"}, 1, "no figure 99"},
		{[]string{"figure", "99", "-csv"}, 1, "no figure 99"},
		{[]string{"table", "3"}, 1, "no table 3"},
	} {
		out, stderr, code := runCLI(t, tc.args...)
		if code != tc.code || out != "" {
			t.Errorf("%v: exit %d, stdout %q; want exit %d and no output", tc.args, code, out, tc.code)
		}
		if tc.code == 2 && !strings.HasPrefix(stderr, tc.msg) {
			t.Errorf("%v: stderr does not start with %q:\n%s", tc.args, tc.msg, stderr)
		}
		if tc.code == 1 && (!strings.HasPrefix(stderr, "fuzzyphase: ") || strings.Count(stderr, "fuzzyphase:") != 1 ||
			strings.Count(stderr, "\n") != 1 || !strings.Contains(stderr, tc.msg)) {
			t.Errorf("%v: stderr %q, want one fuzzyphase: line containing %q", tc.args, stderr, tc.msg)
		}
	}
}
