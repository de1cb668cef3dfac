package obs

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// WritePrometheus renders every registered family in the Prometheus text
// exposition format (version 0.0.4): # HELP / # TYPE headers, one sample
// line per series, histogram buckets cumulative with the canonical
// _bucket/_sum/_count suffixes.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return WriteFamiliesText(w, r.ExportSnapshot())
}

// WriteFamiliesText renders family value snapshots in the Prometheus text
// format. It is the single renderer behind both a node's own /metrics and
// the collector's federated endpoint, so the two expositions cannot drift.
func WriteFamiliesText(w io.Writer, fams []ExportFamily) error {
	bw := bufio.NewWriter(w)
	for _, f := range fams {
		if f.Help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.Name, escapeHelp(f.Help))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.Name, f.Kind)
		for _, s := range f.Series {
			writeSeries(bw, f.Name, f.Kind, s)
		}
	}
	return bw.Flush()
}

func writeSeries(w *bufio.Writer, name, kind string, s ExportSeries) {
	switch kind {
	case "counter":
		w.WriteString(name)
		writeLabels(w, s.Labels, "", 0)
		w.WriteByte(' ')
		w.WriteString(strconv.FormatUint(s.Counter, 10))
		w.WriteByte('\n')
	case "gauge":
		w.WriteString(name)
		writeLabels(w, s.Labels, "", 0)
		w.WriteByte(' ')
		w.WriteString(formatFloat(s.Gauge))
		w.WriteByte('\n')
	case "histogram":
		if len(s.Buckets) != len(s.Bounds)+1 {
			return // malformed snapshot (hostile packet); skip the series
		}
		cum := uint64(0)
		for i, b := range s.Bounds {
			cum += s.Buckets[i]
			w.WriteString(name)
			w.WriteString("_bucket")
			writeLabels(w, s.Labels, "le", b)
			w.WriteByte(' ')
			w.WriteString(strconv.FormatUint(cum, 10))
			w.WriteByte('\n')
		}
		cum += s.Buckets[len(s.Buckets)-1]
		w.WriteString(name)
		w.WriteString("_bucket")
		writeLabels(w, s.Labels, "le", math.Inf(1))
		w.WriteByte(' ')
		w.WriteString(strconv.FormatUint(cum, 10))
		w.WriteByte('\n')
		w.WriteString(name)
		w.WriteString("_sum")
		writeLabels(w, s.Labels, "", 0)
		w.WriteByte(' ')
		w.WriteString(formatFloat(s.Sum))
		w.WriteByte('\n')
		w.WriteString(name)
		w.WriteString("_count")
		writeLabels(w, s.Labels, "", 0)
		w.WriteByte(' ')
		w.WriteString(strconv.FormatUint(s.Count, 10))
		w.WriteByte('\n')
	}
}

// writeLabels renders {k="v",...}; leKey, when non-empty, appends the
// histogram le bound as the final label.
func writeLabels(w *bufio.Writer, labels []Label, leKey string, le float64) {
	if len(labels) == 0 && leKey == "" {
		return
	}
	w.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			w.WriteByte(',')
		}
		w.WriteString(l.Key)
		w.WriteString(`="`)
		w.WriteString(escapeLabel(l.Value))
		w.WriteByte('"')
	}
	if leKey != "" {
		if len(labels) > 0 {
			w.WriteByte(',')
		}
		w.WriteString(leKey)
		w.WriteString(`="`)
		w.WriteString(formatFloat(le))
		w.WriteByte('"')
	}
	w.WriteByte('}')
}

// formatFloat renders a float the way Prometheus expects: shortest
// round-trip representation, with +Inf/-Inf/NaN spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}

// ParseWhen reads the time parameter every telemetry endpoint accepts
// (since=, until=, at=): a duration meaning "that long before now" ("30s",
// "5m") or an RFC 3339 instant.
func ParseWhen(s string, now time.Time) (time.Time, error) {
	if d, err := time.ParseDuration(s); err == nil {
		return now.Add(-d), nil
	}
	return time.Parse(time.RFC3339, s)
}

// Handler returns the /metrics HTTP handler for this registry.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// NewMuxWith assembles the telemetry endpoint set: /metrics (Prometheus
// text), /healthz (JSON liveness), /debug/traces (recent discovery traces,
// when a tracer is supplied) and the net/http/pprof handlers under
// /debug/pprof/, plus extra pattern → handler mounts (a plane's /telemetry
// document). Extra mounts must not collide with the built-in telemetry
// patterns.
func NewMuxWith(reg *Registry, tracer *Tracer, extra map[string]http.Handler) *http.ServeMux {
	mux := http.NewServeMux()
	if reg != nil {
		mux.Handle("/metrics", reg.Handler())
	}
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"status":"ok","goroutines":%d}`+"\n", runtime.NumGoroutine())
	})
	if tracer != nil {
		mux.Handle("/debug/traces", tracer.Handler())
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	for pattern, h := range extra {
		mux.Handle(pattern, h)
	}
	return mux
}

// Server is a running telemetry HTTP endpoint.
type Server struct {
	lis    net.Listener
	http   *http.Server
	cancel context.CancelFunc // ends every request's context: Shutdown calls it
	done   chan struct{}      // closed when the serve goroutine exits
}

// ServeWith binds addr (host:port; port 0 picks a free one) and serves the
// telemetry mux, with its extra mounts (see NewMuxWith), on it in a
// background goroutine.
func ServeWith(addr string, reg *Registry, tracer *Tracer, extra map[string]http.Handler) (*Server, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: telemetry listen %s: %w", addr, err)
	}
	base, cancel := context.WithCancel(context.Background())
	s := &Server{lis: lis, cancel: cancel, done: make(chan struct{}), http: &http.Server{
		Handler:     NewMuxWith(reg, tracer, extra),
		BaseContext: func(net.Listener) context.Context { return base },
	}}
	go func() {
		defer close(s.done)
		_ = s.http.Serve(lis)
	}()
	return s, nil
}

// Addr returns the bound address (useful with port 0).
func (s *Server) Addr() string { return s.lis.Addr().String() }

// Shutdown stops the server gracefully: the listener closes immediately,
// in-flight requests get until ctx's deadline to finish, and the serve
// goroutine is waited for so a clean process exit leaks nothing. Their
// contexts end first, so a handler that only waits on its request — a CPU
// profile or trace sampling its window for a collector's flight capture —
// writes what it has now instead of holding the node's shutdown.
func (s *Server) Shutdown(ctx context.Context) error {
	s.cancel()
	err := s.http.Shutdown(ctx)
	select {
	case <-s.done:
	case <-ctx.Done():
		if err == nil {
			err = ctx.Err()
		}
	}
	return err
}

// Close stops the server immediately, abandoning in-flight requests.
func (s *Server) Close() error {
	err := s.http.Close()
	<-s.done
	return err
}
