package obs

import "log/slog"

// Handle is what a component reports through: the logger, metric registry,
// tracer and journal of the telemetry plane it runs under (obs/plane hands
// one out per node). Component configs embed it as their one telemetry
// field. The zero value is usable: Tracer and Journal are nil-safe recorders
// that drop what they are given, and Scoped resolves the other two.
type Handle struct {
	// Logger receives operational events; nil discards them.
	Logger *slog.Logger
	// Metrics receives the component's metric families, instance identity in
	// labels so several components can share it; nil records into a private
	// registry nobody reads.
	Metrics *Registry
	// Tracer records per-request trace spans; nil records none.
	Tracer *Tracer
	// Journal records control-plane transitions for the fabric event
	// timeline; nil records none.
	Journal *Journal
}

// Scoped returns the handle a component keeps for its lifetime: a nil Logger
// becomes a discarding one and a nil Metrics a private registry, and every
// log record is tagged key=name (broker=<logical address>, bdn=<name>, ...).
func (h Handle) Scoped(key, name string) Handle {
	if h.Logger == nil {
		h.Logger = Nop()
	}
	h.Logger = h.Logger.With(key, name)
	if h.Metrics == nil {
		h.Metrics = NewRegistry()
	}
	return h
}
