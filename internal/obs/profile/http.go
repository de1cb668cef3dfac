package profile

import (
	"encoding/json"
	"net/http"
	"strings"
	"time"

	"narada/internal/obs"
)

// Mount returns the extra-handler map obs.ServeWith expects, exposing the
// capturer at /profiles on a node's telemetry mux.
func (c *Capturer) Mount() map[string]http.Handler {
	h := c.Handler()
	return map[string]http.Handler{"/profiles": h, "/profiles/": h}
}

// Handler serves the capturer over HTTP, designed to mount at /profiles on
// the node telemetry mux:
//
//	GET /profiles              capture metadata, newest first (JSON)
//	GET /profiles?since=...    only captures after an RFC3339 time or a
//	                           duration-ago ("30s", "5m")
//	GET /profiles/{id}         raw capture bytes (?view=top renders the
//	                           dep-free site summary for text profiles)
//	POST /profiles/capture     take cpu+heap+goroutine profiles now
//	                           (?kinds=heap,goroutine to narrow)
func (c *Capturer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rest := strings.TrimPrefix(r.URL.Path, "/profiles")
		rest = strings.Trim(rest, "/")
		switch {
		case rest == "":
			c.serveList(w, r)
		case rest == "capture":
			c.serveCapture(w, r)
		default:
			c.serveOne(w, r, rest)
		}
	})
}

func (c *Capturer) serveList(w http.ResponseWriter, r *http.Request) {
	var f Filter
	if s := r.URL.Query().Get("since"); s != "" {
		t, err := obs.ParseWhen(s, time.Now())
		if err != nil {
			http.Error(w, "bad since: "+err.Error(), http.StatusBadRequest)
			return
		}
		f.Since = t
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(c.List(f))
}

func (c *Capturer) serveCapture(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	kinds := []Kind{KindCPU, KindHeap, KindGoroutine}
	if ks := r.URL.Query().Get("kinds"); ks != "" {
		kinds = kinds[:0]
		for _, k := range strings.Split(ks, ",") {
			if k = strings.TrimSpace(k); k != "" {
				kinds = append(kinds, Kind(k))
			}
		}
	}
	caps, err := c.CaptureNow("manual", kinds...)
	if err != nil && len(caps) == 0 {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	for i := range caps {
		caps[i].Data = nil
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(caps)
}

func (c *Capturer) serveOne(w http.ResponseWriter, r *http.Request, id string) {
	cp, ok := c.store.Get(id)
	if !ok {
		http.Error(w, "no such capture", http.StatusNotFound)
		return
	}
	if err := cp.WriteHTTP(w, r); err != nil {
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
	}
}

// WriteHTTP answers a GET for one capture — a node's /profiles/{id} and the
// collector's both end here. ?view=top renders the dep-free site summary; a
// capture that is not a text profile (CPU captures are binary) returns the
// parse error with nothing written, for the caller to report. Otherwise the
// raw bytes go out as a download, typed by the capture's kind.
func (cp Capture) WriteHTTP(w http.ResponseWriter, r *http.Request) error {
	if r.URL.Query().Get("view") == "top" {
		s, err := ParseText(cp.Data)
		if err != nil {
			return err
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		WriteTop(w, s, 30)
		return nil
	}
	if cp.Kind == KindCPU {
		w.Header().Set("Content-Type", "application/octet-stream")
	} else {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	}
	w.Header().Set("Content-Disposition", `attachment; filename="`+cp.ID+`.pprof"`)
	_, _ = w.Write(cp.Data)
	return nil
}
