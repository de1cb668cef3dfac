package profile

import "net/http"

// WriteHTTP answers a GET for one capture — the collector's /profiles/{id}.
// ?view=top renders the dep-free site summary; a capture that is not a text
// profile (CPU captures are binary) returns the parse error with nothing
// written, for the caller to report. Otherwise the raw bytes go out as a
// download, typed by the capture's kind.
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
