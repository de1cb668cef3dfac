package main

import (
	"os"
	"testing"
	"time"
)

const statFixture = "4242 (bro ker) x) S 1 4242 4242 0 -1 4194560 1234 0 0 0 1500 250 0 0 20 0 9 0 123456 1000000 3000 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0\n"

const ioFixture = `rchar: 1000
wchar: 2000
syscr: 321
syscw: 123
read_bytes: 0
write_bytes: 4096
cancelled_write_bytes: 0
`

const statusFixture = `Name:	broker
Umask:	0022
State:	S (sleeping)
Pid:	4242
VmPeak:	 1234567 kB
VmHWM:	   14336 kB
VmRSS:	   13000 kB
Threads:	9
voluntary_ctxt_switches:	1500
nonvoluntary_ctxt_switches:	25
`

func TestParseStat(t *testing.T) {
	ut, st, err := parseStat(statFixture)
	if err != nil || ut != 1500 || st != 250 {
		t.Fatalf("got utime=%d stime=%d err=%v, want 1500 250", ut, st, err)
	}
	if _, _, err := parseStat("4242 broker S 1"); err == nil {
		t.Error("no command field: want an error")
	}
	if _, _, err := parseStat("1 (x) S 1 2 3"); err == nil {
		t.Error("short line: want an error")
	}
}

func TestParseIOAndStatus(t *testing.T) {
	r, w, err := parseIO(ioFixture)
	if err != nil || r != 321 || w != 123 {
		t.Fatalf("io: got %d %d %v", r, w, err)
	}
	if _, _, err := parseIO("rchar: 1\n"); err == nil {
		t.Error("io without syscr: want an error")
	}
	ctx, err := parseStatusCtx(statusFixture)
	if err != nil || ctx != 1525 {
		t.Fatalf("ctx: got %d %v", ctx, err)
	}
	hwm, err := parseStatusHWM(statusFixture)
	if err != nil || hwm != 14336 {
		t.Fatalf("hwm: got %d %v", hwm, err)
	}
	if _, err := parseStatusHWM("VmHWM:\n"); err == nil {
		t.Error("VmHWM without a value: want an error")
	}
}

func TestSampleProcSelf(t *testing.T) {
	s, err := sampleProc(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if s.PeakRSSKiB == 0 || s.ReadCalls == 0 || s.CPU <= 0 {
		t.Errorf("implausible sample of this process: %+v", s)
	}
	// The CPU-time clock and utime+stime count the same thing, the second
	// in ticks of 10 ms.
	if diff := s.CPU - s.User - s.Sys; diff < -50*time.Millisecond || diff > 50*time.Millisecond {
		t.Errorf("CPU-time clock reads %v, /proc/self/stat %v", s.CPU, s.User+s.Sys)
	}
	d := procSample{User: 3 * time.Second, ReadCalls: 10, PeakRSSKiB: 7}.sub(procSample{User: time.Second, ReadCalls: 4, PeakRSSKiB: 5})
	if d.User != 2*time.Second || d.ReadCalls != 6 || d.PeakRSSKiB != 7 {
		t.Errorf("sub: %+v", d)
	}
}

func TestParseProm(t *testing.T) {
	p := parseProm(`# HELP x y
# TYPE narada_broker_egress_dropped_total counter
narada_broker_egress_dropped_total{broker="a",reason="queue_full"} 3
narada_broker_egress_dropped_total{broker="a",reason="conn_down"} 1
narada_broker_egress_dropped_total{broker="b",reason="queue_full"} 5
narada_broker_egress_dropped 99
narada_process_gc_cycles_total 7
`)
	if got := p.sum("narada_broker_egress_dropped_total"); got != 9 {
		t.Errorf("family sum = %v, want 9", got)
	}
	if got := p.sum("narada_broker_egress_dropped_total", `reason="queue_full"`); got != 8 {
		t.Errorf("label-filtered sum = %v, want 8", got)
	}
	if got := p.sum("narada_process_gc_cycles_total"); got != 7 {
		t.Errorf("unlabelled = %v, want 7", got)
	}
	later := parseProm("narada_process_gc_cycles_total 10\n")
	if got := later.sub(p).sum("narada_process_gc_cycles_total"); got != 3 {
		t.Errorf("delta = %v, want 3", got)
	}
}
