package plane

import (
	"flag"
	"time"
)

// FlagSet selects which of the five telemetry flags a binary takes.
type FlagSet uint

const (
	FlagTelemetryAddr FlagSet = 1 << iota // -telemetry-addr
	FlagProfileEvery                      // -profile-every
	FlagProfileRates                      // -mutex-profile-fraction, -block-profile-rate
	FlagLogLevel                          // -log-level

	FlagsAll = FlagTelemetryAddr | FlagProfileEvery | FlagProfileRates | FlagLogLevel
)

// Flags is the operator-facing part of a plane's Config: what the five
// telemetry flags (and the matching config-file keys) set. A flag the binary
// did not take keeps its zero value, which switches that part off.
type Flags struct {
	// TelemetryAddr is where Serve binds /metrics, /healthz, /debug/traces,
	// pprof and the /telemetry document obscollect scrapes ("" = Serve does
	// nothing).
	TelemetryAddr string
	// ProfileEvery is how often a collector scraping this node takes a
	// profile round of it (0 = never).
	ProfileEvery time.Duration
	// MutexFraction and BlockRate are the process-wide contention profiling
	// rates (0 = off); when set, periodic rounds take those profiles too.
	MutexFraction, BlockRate int
	// LogLevel selects the stderr logger a process-wide plane builds when
	// its Config names none: debug | info | warn | error ("" = info).
	LogLevel string
}

// Default fills the settings no flag gave from the binary's config file.
func (f *Flags) Default(telemetryAddr, logLevel string) {
	if f.TelemetryAddr == "" {
		f.TelemetryAddr = telemetryAddr
	}
	if f.LogLevel == "" {
		f.LogLevel = logLevel
	}
}

// RegisterFlags declares the selected telemetry flags on fs — the one place
// their names, defaults and help text live. overridesConfig says the binary
// also reads a config file these flags take precedence over: the help text
// says so, and -log-level defaults to empty (the file's level, else info)
// instead of "info". A binary whose flag reads differently (nbexp's endpoint
// list) rewrites that flag's Usage after registering.
func RegisterFlags(fs *flag.FlagSet, which FlagSet, overridesConfig bool) *Flags {
	off, overrides, logLevel := "('' = off)", "", "info"
	if overridesConfig {
		off, overrides, logLevel = "(overrides config; '' = off)", " (overrides config)", ""
	}
	f := &Flags{}
	if which&FlagTelemetryAddr != 0 {
		fs.StringVar(&f.TelemetryAddr, "telemetry-addr", "", "listen addr for /metrics, /healthz, /debug/traces and pprof "+off)
	}
	if which&FlagProfileEvery != 0 {
		fs.DurationVar(&f.ProfileEvery, "profile-every", 0, "profile this node every d: a collector scraping it takes goroutine, heap and enabled mutex/block profiles, and a 1s cpu profile when d >= 4s (0 = never; needs -telemetry-addr)")
	}
	if which&FlagProfileRates != 0 {
		fs.IntVar(&f.MutexFraction, "mutex-profile-fraction", 0, "record ~1/N mutex contention events (0 = off)")
		fs.IntVar(&f.BlockRate, "block-profile-rate", 0, "record goroutine blocking events >= N ns (0 = off)")
	}
	if which&FlagLogLevel != 0 {
		fs.StringVar(&f.LogLevel, "log-level", logLevel, "log level: debug | info | warn | error"+overrides)
	}
	return f
}
