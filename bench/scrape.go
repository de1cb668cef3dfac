package main

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// promSamples holds one scrape of a child's existing /metrics endpoint,
// keyed by the full series text (family{labels}).
type promSamples map[string]float64

// parseProm reads the Prometheus text exposition format.
func parseProm(text string) promSamples {
	out := promSamples{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// sum adds every series of the family whose label text contains each of
// want (for example `reason="queue_full"`).
func (p promSamples) sum(family string, want ...string) float64 {
	var total float64
next:
	for series, v := range p {
		name, labels, _ := strings.Cut(series, "{")
		if name != family {
			continue
		}
		for _, w := range want {
			if !strings.Contains(labels, w) {
				continue next
			}
		}
		total += v
	}
	return total
}

// sub returns the per-series change since an earlier scrape.
func (p promSamples) sub(earlier promSamples) promSamples {
	out := promSamples{}
	for k, v := range p {
		out[k] = v - earlier[k]
	}
	return out
}

// add merges another child's samples; series of different children differ
// in their node label, so nothing collides.
func (p promSamples) add(o promSamples) {
	for k, v := range o {
		p[k] += v
	}
}

var scrapeClient = &http.Client{Timeout: 5 * time.Second}

func scrape(addr string) (promSamples, error) {
	resp, err := scrapeClient.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close() //nolint:errcheck
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("bench: scrape %s: %s", addr, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parseProm(string(body)), nil
}

// scrapeAll scrapes every child whose name has the prefix and merges the
// results.
func scrapeAll(addrs map[string]string, prefix string) (promSamples, error) {
	out := promSamples{}
	for name, addr := range addrs {
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		s, err := scrape(addr)
		if err != nil {
			return nil, err
		}
		out.add(s)
	}
	return out, nil
}
