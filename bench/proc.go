package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// userHZ is the unit of utime/stime in /proc/<pid>/stat. The kernel reports
// them in USER_HZ, which is 100 on every Linux ABI Go runs on.
const userHZ = 100

// procSample is one reading of a child's kernel-side accounting.
type procSample struct {
	CPU        time.Duration // CPU consumed by every thread of the process, as the scheduler accounts it
	User, Sys  time.Duration // the same split by mode, as sampled on the kernel's tick
	ReadCalls  uint64        // read-like system calls (/proc/<pid>/io syscr)
	WriteCalls uint64        // write-like system calls (syscw)
	CtxSwitch  uint64        // voluntary + involuntary, summed over threads
	PeakRSSKiB uint64        // VmHWM
}

// sub returns the change from an earlier sample (peak RSS is kept as is).
func (a procSample) sub(b procSample) procSample {
	return procSample{
		CPU:  a.CPU - b.CPU,
		User: a.User - b.User, Sys: a.Sys - b.Sys,
		ReadCalls: a.ReadCalls - b.ReadCalls, WriteCalls: a.WriteCalls - b.WriteCalls,
		CtxSwitch:  a.CtxSwitch - b.CtxSwitch,
		PeakRSSKiB: a.PeakRSSKiB,
	}
}

// add accumulates another process's sample.
func (a procSample) add(b procSample) procSample {
	return procSample{
		CPU:  a.CPU + b.CPU,
		User: a.User + b.User, Sys: a.Sys + b.Sys,
		ReadCalls: a.ReadCalls + b.ReadCalls, WriteCalls: a.WriteCalls + b.WriteCalls,
		CtxSwitch:  a.CtxSwitch + b.CtxSwitch,
		PeakRSSKiB: a.PeakRSSKiB + b.PeakRSSKiB,
	}
}

// parseStat extracts utime and stime, in clock ticks, from the text of
// /proc/<pid>/stat. The command name (field 2) may hold spaces and
// parentheses, so fields are counted from the last ')'.
func parseStat(text string) (utime, stime uint64, err error) {
	end := strings.LastIndexByte(text, ')')
	if end < 0 {
		return 0, 0, fmt.Errorf("proc stat: no command field in %q", text)
	}
	f := strings.Fields(text[end+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("proc stat: %d fields after the command", len(f))
	}
	if utime, err = strconv.ParseUint(f[11], 10, 64); err != nil {
		return 0, 0, fmt.Errorf("proc stat: utime: %w", err)
	}
	if stime, err = strconv.ParseUint(f[12], 10, 64); err != nil {
		return 0, 0, fmt.Errorf("proc stat: stime: %w", err)
	}
	return utime, stime, nil
}

// parseKeyed reads "key: value [unit]" lines (the shape of /proc/<pid>/io and
// /proc/<pid>/status) and returns the numeric value of each wanted key. A
// wanted key that is absent is an error.
func parseKeyed(text string, keys ...string) ([]uint64, error) {
	out := make([]uint64, len(keys))
	found := make([]bool, len(keys))
	for _, line := range strings.Split(text, "\n") {
		name, rest, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		for i, k := range keys {
			if name != k {
				continue
			}
			f := strings.Fields(rest)
			if len(f) == 0 {
				return nil, fmt.Errorf("proc: %s has no value", k)
			}
			v, err := strconv.ParseUint(f[0], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("proc: %s: %w", k, err)
			}
			out[i], found[i] = v, true
		}
	}
	for i, k := range keys {
		if !found[i] {
			return nil, fmt.Errorf("proc: key %s not found", k)
		}
	}
	return out, nil
}

// parseIO extracts the read and write system-call counts from /proc/<pid>/io.
func parseIO(text string) (syscr, syscw uint64, err error) {
	v, err := parseKeyed(text, "syscr", "syscw")
	if err != nil {
		return 0, 0, err
	}
	return v[0], v[1], nil
}

// parseStatusCtx extracts one thread's context-switch counts from the text
// of /proc/<pid>/task/<tid>/status.
func parseStatusCtx(text string) (uint64, error) {
	v, err := parseKeyed(text, "voluntary_ctxt_switches", "nonvoluntary_ctxt_switches")
	if err != nil {
		return 0, err
	}
	return v[0] + v[1], nil
}

// parseStatusHWM extracts the peak resident set size, in KiB, from
// /proc/<pid>/status.
func parseStatusHWM(text string) (uint64, error) {
	v, err := parseKeyed(text, "VmHWM")
	if err != nil {
		return 0, err
	}
	return v[0], nil
}

// cpuClock reads a process's CPU-time clock: what all its threads, ended
// ones included, have run, to the nanosecond. utime and stime in
// /proc/<pid>/stat are not that on a kernel with tick-based accounting (this
// host's, at 250 Hz): there whoever runs when the tick fires is charged the
// whole tick, and load issued on a 2 ms schedule keeps a fixed phase to it, so
// a segment reads up to a quarter high or low for as long as it lasts.
func cpuClock(pid int) (time.Duration, error) {
	// The clock id clock_getcpuclockid(3) makes for pid: ~pid in the upper
	// bits, CPUCLOCK_SCHED (2) in the lower three.
	id := int32(^pid<<3 | 2)
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, uintptr(id), uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, fmt.Errorf("proc: CPU-time clock of pid %d: %w", pid, errno)
	}
	return time.Duration(ts.Nano()), nil
}

// sampleProc reads a live process's accounting from its CPU-time clock and
// from /proc.
func sampleProc(pid int) (procSample, error) {
	var s procSample
	var err error
	if s.CPU, err = cpuClock(pid); err != nil {
		return s, err
	}
	dir := filepath.Join("/proc", strconv.Itoa(pid))
	read := func(name string) (string, error) {
		b, err := os.ReadFile(filepath.Join(dir, name))
		return string(b), err
	}
	text, err := read("stat")
	if err != nil {
		return s, err
	}
	ut, st, err := parseStat(text)
	if err != nil {
		return s, err
	}
	s.User = time.Duration(ut) * time.Second / userHZ
	s.Sys = time.Duration(st) * time.Second / userHZ
	if text, err = read("io"); err != nil {
		return s, err
	}
	if s.ReadCalls, s.WriteCalls, err = parseIO(text); err != nil {
		return s, err
	}
	if text, err = read("status"); err != nil {
		return s, err
	}
	if s.PeakRSSKiB, err = parseStatusHWM(text); err != nil {
		return s, err
	}
	// Context switches are per thread; a thread that exits between the
	// listing and the read is skipped.
	tasks, err := os.ReadDir(filepath.Join(dir, "task"))
	if err != nil {
		return s, err
	}
	for _, t := range tasks {
		text, err := read(filepath.Join("task", t.Name(), "status"))
		if err != nil {
			continue
		}
		n, err := parseStatusCtx(text)
		if err != nil {
			return s, err
		}
		s.CtxSwitch += n
	}
	return s, nil
}
