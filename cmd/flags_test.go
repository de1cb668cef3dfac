// Package cmd_test checks the binaries' command-line surface as a whole.
package cmd_test

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestFlagSurface builds the five binaries that take telemetry flags and
// compares each one's -h listing — every flag's name, type, default and help
// text — with the listing captured before the flags moved into
// plane.RegisterFlags (testdata/<binary>.help). A knob added, lost, renamed
// or re-defaulted anywhere fails here. To accept an intended change,
// regenerate the file: `<binary> -h 2>&1 | tail -n +2`. The binaries are
// built without GOEXPERIMENT, so nbexp is the one that runs no experiment.
func TestFlagSurface(t *testing.T) {
	if testing.Short() {
		t.Skip("builds five binaries")
	}
	bin := t.TempDir()
	for _, name := range []string{"broker", "bdn", "discover", "obscollect", "nbexp"} {
		exe := filepath.Join(bin, name)
		build := exec.Command("go", "build", "-o", exe, "./"+name)
		build.Env = append(os.Environ(), "GOEXPERIMENT=")
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("go build ./%s: %v\n%s", name, err, out)
		}
		// -h exits 0 after printing the listing to stderr; a non-zero exit
		// still leaves the listing to compare.
		got, _ := exec.Command(exe, "-h").CombinedOutput()
		if i := bytes.IndexByte(got, '\n'); i >= 0 {
			got = got[i+1:] // drop "Usage of <path>:"
		}
		want, err := os.ReadFile(filepath.Join("testdata", name+".help"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s -h changed:\n--- got\n%s--- want\n%s", name, got, want)
		}
		if name == "nbexp" {
			t.Run("nbexp-untagged-runs-nothing", func(t *testing.T) { untaggedNbexpRunsNothing(t, exe) })
		}
	}
}

// untaggedNbexpRunsNothing: every experiment measures model time, which only
// a synctest bubble keeps exact, so an nbexp built without GOEXPERIMENT=synctest
// refuses one: it exits non-zero and names the make target that builds the
// nbexp that runs it.
func untaggedNbexpRunsNothing(t *testing.T, exe string) {
	var stderr bytes.Buffer
	run := exec.Command(exe, "-exp", "fig7")
	run.Stderr = &stderr
	if err := run.Run(); err == nil || !strings.Contains(stderr.String(), "make figures") {
		t.Errorf("nbexp -exp fig7: %v, stderr %q; want a non-zero exit naming make figures", err, stderr.String())
	}
}
