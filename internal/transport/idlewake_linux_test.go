package transport

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// idleWakeEnv names the echo a re-executed test binary serves for
// BenchmarkIdleWake: "datagram" or "stream".
const idleWakeEnv = "NARADA_IDLE_WAKE_ECHO"

func TestMain(m *testing.M) {
	if kind := os.Getenv(idleWakeEnv); kind != "" {
		if err := idleWakeEcho(kind); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// idleWakeEcho prints the address it serves on, then echoes every datagram
// to its sender, or every frame of the one stream it accepts, until killed.
func idleWakeEcho(kind string) error {
	node := NewRealNode("127.0.0.1", nil)
	if kind == "datagram" {
		pc, err := node.ListenPacket(0)
		if err != nil {
			return err
		}
		fmt.Println(pc.LocalAddr())
		for {
			msg, from, err := pc.Recv()
			if err != nil {
				return err
			}
			if err := pc.Send(from, msg); err != nil {
				return err
			}
		}
	}
	l, err := node.Listen(0)
	if err != nil {
		return err
	}
	fmt.Println(l.Addr())
	c, err := l.Accept()
	if err != nil {
		return err
	}
	for {
		msg, err := c.Recv()
		if err != nil {
			return err
		}
		if err := c.Send(msg); err != nil {
			return err
		}
	}
}

// BenchmarkIdleWake is the transport's wake rung: what a process that was
// idle spends to answer one message. A child process (this test binary,
// re-executed) echoes on a real datagram socket or stream; the parent sends
// one 100-byte exchange per millisecond, so the child sleeps between them,
// and reports the child's context switches (ctxsw/op, every thread's
// voluntary and involuntary switches) and CPU time (cpu-ns/op) per exchange,
// from /proc/<pid>/task/*. A socket call that wakes the runtime's sysmon
// thread shows here as two more switches per message; scripts/bench_gate.sh
// gates ctxsw/op.
func BenchmarkIdleWake(b *testing.B) {
	for _, kind := range []string{"datagram", "stream"} {
		b.Run(kind, func(b *testing.B) { benchIdleWake(b, kind) })
	}
}

func benchIdleWake(b *testing.B, kind string) {
	exe, err := os.Executable()
	if err != nil {
		b.Fatal(err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), idleWakeEnv+"="+kind)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		b.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		cmd.Process.Kill() //nolint:errcheck // it may have died already
		cmd.Wait()         //nolint:errcheck // killed
	})
	addr, err := bufio.NewReader(out).ReadString('\n')
	if err != nil {
		b.Fatalf("echo child: %v", err)
	}
	addr = strings.TrimSpace(addr)

	node := NewRealNode("127.0.0.1", nil)
	msg := make([]byte, 100)
	var exchange func() error
	if kind == "datagram" {
		pc, err := node.ListenPacket(0)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { pc.Close() })
		exchange = func() error {
			if err := pc.Send(addr, msg); err != nil {
				return err
			}
			_, _, err := pc.RecvTimeout(5 * time.Second)
			return err
		}
	} else {
		c, err := node.Dial(addr)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { c.Close() })
		exchange = func() error {
			if err := c.Send(msg); err != nil {
				return err
			}
			_, err := c.RecvTimeout(5 * time.Second)
			return err
		}
	}
	for i := 0; i < 100; i++ { // the child's threads, pools and poller settle
		if err := exchange(); err != nil {
			b.Fatal(err)
		}
	}

	pid := cmd.Process.Pid
	before := readTaskStats(b, pid)
	b.ResetTimer()
	next := time.Now()
	for i := 0; i < b.N; i++ {
		next = next.Add(time.Millisecond)
		time.Sleep(time.Until(next))
		if err := exchange(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	after := readTaskStats(b, pid)
	b.ReportMetric(float64(after.ctxsw-before.ctxsw)/float64(b.N), "ctxsw/op")
	b.ReportMetric(float64(after.cpuNs-before.cpuNs)/float64(b.N), "cpu-ns/op")
}

type taskStats struct{ ctxsw, cpuNs int64 }

// readTaskStats sums, over every thread of process pid, its context switches
// (status) and the CPU time it has run (schedstat's first field).
func readTaskStats(b *testing.B, pid int) taskStats {
	b.Helper()
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*", pid))
	if err != nil || len(tasks) == 0 {
		b.Fatalf("no threads of %d: %v", pid, err)
	}
	var s taskStats
	for _, task := range tasks {
		status, err := os.ReadFile(filepath.Join(task, "status"))
		if err != nil {
			b.Fatal(err)
		}
		for _, line := range bytes.Split(status, []byte("\n")) {
			if k, v, ok := strings.Cut(string(line), ":"); ok && strings.HasSuffix(k, "ctxt_switches") {
				n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
				if err != nil {
					b.Fatal(err)
				}
				s.ctxsw += n
			}
		}
		sched, err := os.ReadFile(filepath.Join(task, "schedstat"))
		if err != nil {
			b.Fatal(err)
		}
		ns, err := strconv.ParseInt(strings.Fields(string(sched))[0], 10, 64)
		if err != nil {
			b.Fatal(err)
		}
		s.cpuNs += ns
	}
	return s
}
