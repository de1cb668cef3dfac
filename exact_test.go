package narada

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
)

// lanePackages hold the exact lane's tests: the files tagged
// goexperiment.synctest, which run each test in a synctest bubble, where the
// simulated network's model time is the bubble's clock and a run is a
// function of its seed.
var lanePackages = []string{".", "./internal/simnet", "./internal/core", "./internal/bdn",
	"./internal/broker", "./internal/experiments", "./internal/testbed", "./internal/wal",
	"./examples/datastreams", "./examples/datastreams/reliable"}

const laneTag = "//go:build goexperiment.synctest\n"

var testFunc = regexp.MustCompile(`(?m)^func (Test\w*)\(\w+ \*testing\.T\)`)

// realSocket matches the calls that open an operating-system socket. A lane
// file may make none: in a bubble a goroutine blocked on network I/O is not
// durably blocked, so the bubble's clock stalls behind it.
var realSocket = regexp.MustCompile(`\b(httptest\.New(TLS)?Server|net\.(Listen|Dial)\w*|transport\.NewRealNode)\(`)

// TestExactLane runs the exact lane's tests, and only those, with
// GOEXPERIMENT=synctest (`make exact` runs this test), and reports each as a
// subtest named <package>.<test>, with its own subtests beneath it. It
// refuses, naming the file, a lane file that opens a real socket.
func TestExactLane(t *testing.T) {
	lane, wall := map[string]bool{}, map[string]bool{}
	for _, dir := range lanePackages {
		files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			side := wall
			if bytes.HasPrefix(src, []byte(laneTag)) {
				side = lane
				if call := realSocket.Find(src); call != nil {
					t.Errorf("%s is on the exact lane but opens a real socket: %s", f, call)
				}
			}
			for _, m := range testFunc.FindAllSubmatch(src, -1) {
				side[string(m[1])] = true
			}
		}
	}
	if t.Failed() {
		t.FailNow()
	}
	var names []string
	for name := range lane {
		if wall[name] {
			t.Fatalf("%s names a test on both lanes; -run would run the wall one under the experiment too", name)
		}
		names = append(names, name)
	}
	args := []string{"test", "-count=1", "-timeout", "120s", "-json",
		"-run", "^(" + strings.Join(names, "|") + ")$"}
	if raceBuilt() {
		// `go test -race ./...` runs the lane under the detector too.
		args = append(args, "-race")
	}
	args = append(args, lanePackages...)
	cmd := exec.Command("go", args...)
	cmd.Env = append(os.Environ(), "GOEXPERIMENT=synctest")
	out, runErr := cmd.Output()

	// Fold the event stream into one log and one verdict per test and
	// subtest. The rest (package results, build errors) is reported if the
	// run failed.
	logs := map[string]*strings.Builder{}
	verdict := map[string]string{}
	children := map[string][]string{}
	var outside strings.Builder
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var ev struct{ Action, Package, Test, Output string }
		if err := dec.Decode(&ev); err != nil {
			t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
		}
		if ev.Test == "" {
			outside.WriteString(ev.Output)
			continue
		}
		// Each package's lane helper runs its test as subtest "bubble", so
		// that t.Cleanup runs inside the bubble; the fold drops that level,
		// and a subtest keeps the name it would have outside the lane.
		segs := slices.DeleteFunc(strings.Split(ev.Test, "/"), func(s string) bool { return s == "bubble" })
		name := path.Base(ev.Package) + "." + strings.Join(segs, "/")
		if logs[name] == nil {
			logs[name] = &strings.Builder{}
			// The parent is the longest name seen before that prefixes this
			// one: a subtest's own name may hold a slash.
			parent := ""
			for i := len(name) - 1; i > 0; i-- {
				if name[i] == '/' && logs[name[:i]] != nil {
					parent = name[:i]
					break
				}
			}
			children[parent] = append(children[parent], name)
		}
		logs[name].WriteString(ev.Output)
		if ev.Action == "pass" || ev.Action == "fail" || ev.Action == "skip" {
			verdict[name] = ev.Action
		}
	}
	// report mirrors a lane test and its subtests under TestExactLane, so
	// each keeps its own name: TestExactLane/<package>.<Test>/<subtest>.
	var report func(t *testing.T, name string)
	report = func(t *testing.T, name string) {
		for _, child := range children[name] {
			t.Run(strings.TrimPrefix(child, name+"/"), func(t *testing.T) { report(t, child) })
		}
		switch verdict[name] {
		case "fail":
			t.Error(logs[name])
		case "skip":
			t.Skip(logs[name])
		}
	}
	report(t, "")
	if runErr != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), runErr, &outside)
	}
}

// raceBuilt reports whether this test binary was built with -race.
func raceBuilt() bool {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range info.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}
