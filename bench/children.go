package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildDir is where everything the benchmark generates lives, relative to
// the checkout root: the Go build cache, the binaries, per-run scratch
// directories and the trace files.
const buildDir = ".bench_build"

// findRoot walks up from the working directory to the checkout root: the
// directory holding the program's go.mod and cmd/broker. The benchmark is
// started from the root; its tests run from bench/.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		mod, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(mod), "module narada\n") {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "broker")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("bench: no checkout of the program above the working directory (need go.mod of module narada and cmd/broker)")
		}
		dir = parent
	}
}

// binaries are the children's executables, built once per process.
type binaries struct {
	Broker, BDN string
	BuildTime   time.Duration
}

// buildChildren compiles cmd/broker and cmd/bdn from the checkout's source
// into buildDir/bin. The Go build cache and temp files are kept under
// buildDir as well, so nothing is written outside the checkout.
func buildChildren(root string) (*binaries, error) {
	bin := filepath.Join(root, buildDir, "bin")
	tmp := filepath.Join(root, buildDir, "tmp")
	for _, d := range []string{bin, tmp} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/broker", "./cmd/bdn")
	cmd.Dir = root
	cmd.Env = append(os.Environ(),
		"GOCACHE="+filepath.Join(root, buildDir, "gocache"),
		"GOTMPDIR="+tmp,
		"GOFLAGS=-buildvcs=false",
		"GOTOOLCHAIN=local",
	)
	if out, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("bench: building children: %w\n%s", err, out)
	}
	return &binaries{
		Broker:    filepath.Join(bin, "broker"),
		BDN:       filepath.Join(bin, "bdn"),
		BuildTime: time.Since(start),
	}, nil
}

// child is one process of the system under test.
type child struct {
	name string
	cmd  *exec.Cmd
	pid  int

	mu     sync.Mutex
	lines  []string      // stderr so far
	bump   chan struct{} // closed and replaced whenever lines or exited change
	exited bool
	done   chan struct{} // closed once Wait has returned
}

// maxKeptLines bounds a child's retained stderr; the head is kept (start-up
// lines carry the addresses) and the overflow is dropped.
const maxKeptLines = 4000

func (c *child) pump(r io.Reader) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		c.mu.Lock()
		if len(c.lines) < maxKeptLines {
			c.lines = append(c.lines, sc.Text())
		}
		close(c.bump)
		c.bump = make(chan struct{})
		c.mu.Unlock()
	}
}

// waitLog blocks until a stderr line matches re and returns its submatches.
// A child that exits first, or a timeout, is an error.
func (c *child) waitLog(re *regexp.Regexp, timeout time.Duration) ([]string, error) {
	deadline := time.After(timeout)
	next := 0
	for {
		c.mu.Lock()
		for ; next < len(c.lines); next++ {
			if m := re.FindStringSubmatch(c.lines[next]); m != nil {
				c.mu.Unlock()
				return m, nil
			}
		}
		exited, bump := c.exited, c.bump
		c.mu.Unlock()
		if exited {
			return nil, fmt.Errorf("bench: %s exited before logging %q", c.name, re)
		}
		select {
		case <-bump:
		case <-deadline:
			return nil, fmt.Errorf("bench: %s did not log %q within %v", c.name, re, timeout)
		}
	}
}

func (c *child) stderr() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return strings.Join(c.lines, "\n")
}

// fleet is the set of children of one set-up plus their scratch directory.
type fleet struct {
	dir       string // removed on stop
	firstExec time.Time

	mu   sync.Mutex
	kids []*child
}

// live tracks every fleet with running children so that any exit path — a
// failed check, a panic, SIGINT — can stop them all.
var live struct {
	sync.Mutex
	fleets map[*fleet]struct{}
}

func stopAllFleets() {
	live.Lock()
	var fs []*fleet
	for f := range live.fleets {
		fs = append(fs, f)
	}
	live.Unlock()
	for _, f := range fs {
		f.stop()
	}
}

// newFleet creates an empty fleet with a scratch directory under buildDir.
func newFleet(root string) (*fleet, error) {
	base := filepath.Join(root, buildDir, "run")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(base, "fleet-")
	if err != nil {
		return nil, err
	}
	f := &fleet{dir: dir}
	live.Lock()
	if live.fleets == nil {
		live.fleets = make(map[*fleet]struct{})
	}
	live.fleets[f] = struct{}{}
	live.Unlock()
	return f, nil
}

// start launches one child in its own process group with stderr captured.
func (f *fleet) start(name, bin string, args ...string) (*child, error) {
	cmd := exec.Command(bin, args...)
	cmd.Dir = f.dir
	// Own process group, so a signal to the benchmark's group (Ctrl-C) does
	// not race our ordered teardown; Pdeathsig covers the benchmark itself
	// being killed outright.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	c := &child{name: name, cmd: cmd, bump: make(chan struct{}), done: make(chan struct{})}
	now := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("bench: starting %s: %w", name, err)
	}
	c.pid = cmd.Process.Pid
	f.mu.Lock()
	if f.firstExec.IsZero() {
		f.firstExec = now
	}
	f.kids = append(f.kids, c)
	f.mu.Unlock()
	go func() {
		c.pump(pipe)
		_ = cmd.Wait()
		c.mu.Lock()
		c.exited = true
		close(c.bump)
		c.bump = make(chan struct{})
		c.mu.Unlock()
		close(c.done)
	}()
	return c, nil
}

// alive fails when any child has exited: numbers from a half-dead system
// are not numbers.
func (f *fleet) alive() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, c := range f.kids {
		c.mu.Lock()
		exited := c.exited
		c.mu.Unlock()
		if exited {
			return fmt.Errorf("bench: child %s (pid %d) exited early", c.name, c.pid)
		}
	}
	return nil
}

// sample reads /proc for every child whose name has the prefix and returns
// the sum.
func (f *fleet) sample(prefix string) (procSample, error) {
	f.mu.Lock()
	kids := append([]*child(nil), f.kids...)
	f.mu.Unlock()
	var sum procSample
	for _, c := range kids {
		if !strings.HasPrefix(c.name, prefix) {
			continue
		}
		s, err := sampleProc(c.pid)
		if err != nil {
			return sum, fmt.Errorf("bench: sampling %s: %w", c.name, err)
		}
		sum = sum.add(s)
	}
	return sum, nil
}

// dumpStderr writes every child's captured stderr to w (used on failure).
func (f *fleet) dumpStderr(w io.Writer) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, c := range f.kids {
		fmt.Fprintf(w, "---- stderr of %s (pid %d) ----\n%s\n", c.name, c.pid, c.stderr())
	}
}

// stop kills every child's process group, waits for each child to be reaped,
// and removes the scratch directory. The children are throw-away (their data
// directory goes with them), so they get SIGKILL: an orderly broker shutdown
// takes a second, which a run with several set-ups cannot spend. It is
// idempotent.
func (f *fleet) stop() {
	live.Lock()
	_, tracked := live.fleets[f]
	delete(live.fleets, f)
	live.Unlock()
	if !tracked {
		return
	}
	f.mu.Lock()
	kids := append([]*child(nil), f.kids...)
	f.mu.Unlock()
	for _, c := range kids {
		_ = syscall.Kill(-c.pid, syscall.SIGKILL)
	}
	for _, c := range kids {
		<-c.done
	}
	_ = os.RemoveAll(f.dir)
}
