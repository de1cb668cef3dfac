// Package profile keeps and reads pprof profiles: Kind names them, the one
// bounded Store holds them — the collector's, which every profile it takes
// from a node's net/http/pprof endpoints lands in — Capture.WriteHTTP serves
// one, and ParseText, WriteTop and Diff read the text ones without the pprof
// proto decoder.
// Heap, goroutine, mutex and block profiles are taken in the legacy debug=1
// text format — parseable by the dep-free diff in this package and still
// accepted by `go tool pprof`; CPU profiles are the binary proto format.
package profile

// Kind names one profile type.
type Kind string

const (
	KindCPU       Kind = "cpu"
	KindHeap      Kind = "heap"
	KindGoroutine Kind = "goroutine"
	KindMutex     Kind = "mutex"
	KindBlock     Kind = "block"
)
