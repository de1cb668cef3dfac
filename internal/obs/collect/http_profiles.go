package collect

import (
	"net/http"
	"time"

	"narada/internal/obs/profile"
)

func (c *Collector) serveProfiles(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	f := profile.Filter{
		Node:    q.Get("node"),
		Kind:    profile.Kind(q.Get("kind")),
		Trigger: q.Get("trigger"),
	}
	if s := q.Get("since"); s != "" {
		var ok bool
		if f.Since, ok = parseWhen(w, s, time.Now()); !ok {
			return
		}
	}
	writeJSON(w, http.StatusOK, c.Profiles(f))
}

func (c *Collector) serveProfile(w http.ResponseWriter, r *http.Request) {
	cp, ok := c.profiles.store.Get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "profile not found"})
		return
	}
	if err := cp.WriteHTTP(w, r); err != nil {
		writeJSON(w, http.StatusUnprocessableEntity, map[string]string{
			"error": "not a text-parseable profile (cpu profiles are binary; download raw): " + err.Error()})
	}
}

// serveProfileDiff renders the dep-free site diff of two stored text-mode
// profiles (?a= older, ?b= newer) — the goroutine-leak workflow: diff a
// flight capture against the periodic capture that preceded it.
func (c *Collector) serveProfileDiff(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	aID, bID := q.Get("a"), q.Get("b")
	if aID == "" || bID == "" {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "a and b profile ids are required"})
		return
	}
	aCap, aOK := c.profiles.store.Get(aID)
	bCap, bOK := c.profiles.store.Get(bID)
	if !aOK || !bOK {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "profile not found"})
		return
	}
	a, err := profile.ParseText(aCap.Data)
	if err != nil {
		writeJSON(w, http.StatusUnprocessableEntity, map[string]string{"error": "a: " + err.Error()})
		return
	}
	b, err := profile.ParseText(bCap.Data)
	if err != nil {
		writeJSON(w, http.StatusUnprocessableEntity, map[string]string{"error": "b: " + err.Error()})
		return
	}
	if a.Kind != b.Kind {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "profiles are of different kinds"})
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	profile.WriteDiff(w, a, b, 30)
}
