package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// promSample is a parsed Prometheus text scrape: every unlabelled series by
// name (a histogram contributes name_sum and name_count; its bucket lines
// and every other labelled series are skipped).
type promSample map[string]float64

// parseMetrics parses the text exposition format ontoserve's /metrics
// serves.
func parseMetrics(b []byte) (promSample, error) {
	out := promSample{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || strings.IndexByte(line, '{') >= 0 {
			continue
		}
		name, value, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(value), 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: value of %s: %w", name, err)
		}
		out[name] = v
	}
	return out, sc.Err()
}

// histMean is Δsum ÷ Δcount of a histogram between two scrapes, 0 when it
// observed nothing.
func histMean(before, after promSample, name string) float64 {
	n := after[name+"_count"] - before[name+"_count"]
	if n <= 0 {
		return 0
	}
	return (after[name+"_sum"] - before[name+"_sum"]) / n
}

// statsSample is the part of GET /stats the harness reads.
type statsSample struct {
	Asserted int `json:"asserted"`
	Engine   struct {
		Overdeleted int `json:"overdeleted"`
		Rederived   int `json:"rederived"`
	} `json:"engine"`
	Cache struct {
		Entries       int   `json:"entries"`
		Bytes         int64 `json:"bytes"`
		Hits          int64 `json:"hits"`
		Misses        int64 `json:"misses"`
		Invalidations int64 `json:"invalidations"`
	} `json:"cache"`
	Durability *struct {
		Fsyncs             int64   `json:"fsyncs"`
		Checkpoints        int64   `json:"checkpoints"`
		Merges             int64   `json:"merges"`
		WriteAmplification float64 `json:"write_amplification"`
		RecoverySeconds    float64 `json:"recovery_seconds"`
		Error              string  `json:"error"`
	} `json:"durability"`
}

func parseStats(b []byte) (statsSample, error) {
	var s statsSample
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("stats: %w", err)
	}
	if s.Durability == nil {
		return s, errors.New("stats: no durability block; the server is not running on a data directory")
	}
	return s, nil
}

// heapSample is the runtime.MemStats footer of a debug=1 heap profile.
type heapSample struct {
	TotalAlloc uint64 // cumulative bytes allocated
	HeapAlloc  uint64 // bytes of reachable and not-yet-swept objects
	Mallocs    uint64 // cumulative objects allocated
	NumGC      uint64 // completed GC cycles
}

// parseHeapProfile reads the "# Name = value" lines of
// /debug/pprof/heap?debug=1.
func parseHeapProfile(b []byte) (heapSample, error) {
	var h heapSample
	want := map[string]*uint64{"TotalAlloc": &h.TotalAlloc, "HeapAlloc": &h.HeapAlloc, "Mallocs": &h.Mallocs, "NumGC": &h.NumGC}
	found := 0
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "# ")
		if !ok {
			continue
		}
		name, value, ok := strings.Cut(rest, " = ")
		if !ok {
			continue
		}
		dst, ok := want[name]
		if !ok {
			continue
		}
		v, err := strconv.ParseUint(strings.TrimSpace(value), 10, 64)
		if err != nil {
			return h, fmt.Errorf("heap profile: %s: %w", name, err)
		}
		*dst = v
		found++
	}
	if err := sc.Err(); err != nil {
		return h, err
	}
	if found != len(want) {
		return h, fmt.Errorf("heap profile: found %d of %d memstats lines", found, len(want))
	}
	return h, nil
}

// scraper fetches the server's own outputs. It uses its own client, so a
// scrape never shares a connection with the load.
type scraper struct {
	s      *child
	client *http.Client
}

func newScraper(s *child) *scraper {
	return &scraper{s: s, client: &http.Client{Timeout: 60 * time.Second}}
}

func (sc *scraper) get(url string) ([]byte, error) {
	resp, err := sc.client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", url, resp.Status, bytes.TrimSpace(b))
	}
	return b, nil
}

func (sc *scraper) close() { sc.client.CloseIdleConnections() }

// snapshot is one reading of everything the server reports about itself.
type snapshot struct {
	cpu     procStat
	heap    heapSample
	metrics promSample
	stats   statsSample

	scrapeMS    float64 // wall time of the /metrics scrape
	scrapeBytes int
}

// take reads the process's counters. Before a phase the CPU reading comes
// last and after a phase first, so the scrapes' own cost stays outside the
// CPU window.
func (sc *scraper) take(cpuFirst bool) (*snapshot, error) {
	var snap snapshot
	var err error
	if cpuFirst {
		if snap.cpu, err = sc.s.cpu(); err != nil {
			return nil, err
		}
	}
	b, err := sc.get(sc.s.pprof + "/debug/pprof/heap?debug=1")
	if err != nil {
		return nil, err
	}
	if snap.heap, err = parseHeapProfile(b); err != nil {
		return nil, err
	}
	start := time.Now()
	if b, err = sc.get(sc.s.api + "/metrics"); err != nil {
		return nil, err
	}
	snap.scrapeMS = float64(time.Since(start)) / float64(time.Millisecond)
	snap.scrapeBytes = len(b)
	if snap.metrics, err = parseMetrics(b); err != nil {
		return nil, err
	}
	if b, err = sc.get(sc.s.api + "/stats"); err != nil {
		return nil, err
	}
	if snap.stats, err = parseStats(b); err != nil {
		return nil, err
	}
	if !cpuFirst {
		if snap.cpu, err = sc.s.cpu(); err != nil {
			return nil, err
		}
	}
	return &snap, nil
}

// liveHeap forces a collection in the server and returns what survived it.
func (sc *scraper) liveHeap() (uint64, error) {
	b, err := sc.get(sc.s.pprof + "/debug/pprof/heap?debug=1&gc=1")
	if err != nil {
		return 0, err
	}
	h, err := parseHeapProfile(b)
	return h.HeapAlloc, err
}
