// Package obs is the structured observability layer of the simulator: a
// typed metrics registry, a per-round JSONL event stream, and a Collector
// that turns the engine's per-round sim.Round records into both.
//
// The paper's evaluation is an accounting argument — communication cost by
// message kind and sender role, per-phase progress of Algorithm 1, and the
// (T, L)-HiNet stability assumptions that justify the Theorem 1 bound
// T >= k + α·L. This package makes every term of that argument observable
// per round: tokens and messages by kind and role, upload/relay counts per
// phase, idle-round and stall detection, convergence progress as
// delivered-(node, token)-pairs out of n·k, and hierarchy-churn gauges
// (head-set changes, re-affiliations, gateway flips) that connect the
// observed dynamics back to the stability assumptions.
//
// Design constraints: the hot path (one callback per message) performs no
// heap allocation, and the emitted byte stream is deterministic — a
// Workers > 1 run produces output byte-identical to the serial engine on
// the same inputs (the engine merges shard-local observer buffers at each
// round barrier in (round, sender) order).
package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is ready to
// use; increments are atomic and allocation-free.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds d (d must be >= 0 for the exposition to stay meaningful).
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down. The zero value is ready to
// use; updates are atomic and allocation-free.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(x int64) { g.v.Store(x) }

// Add adjusts the value by d.
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket cumulative histogram in the Prometheus
// style: bounds are upper bucket edges, ascending, with an implicit +Inf
// bucket. Observations are atomic and allocation-free.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64 // len(bounds)+1; buckets[i] counts v <= bounds[i]
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits of the running sum
	maxBits atomic.Uint64 // float64 bits of the largest observation (-Inf when empty)
}

// NewHistogram builds a histogram with the given upper bounds (ascending;
// the +Inf bucket is implicit). An empty bounds slice yields a pure
// count/sum histogram.
func NewHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
	h := &Histogram{
		bounds:  append([]float64(nil), bounds...),
		buckets: make([]atomic.Int64, len(bounds)+1),
	}
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// RoundBuckets is the default bucket layout for per-round count
// distributions (messages or tokens per round).
var RoundBuckets = []float64{0, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000}

// LatencyBuckets is the default bucket layout for round-denominated
// latency distributions (token arrival to garbage collection).
var LatencyBuckets = []float64{0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 512, 1024}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.maxBits.Load()
		if math.Float64frombits(old) >= v || h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Max returns the largest observation, or NaN on an empty histogram.
func (h *Histogram) Max() float64 {
	if h.count.Load() == 0 {
		return math.NaN()
	}
	return math.Float64frombits(h.maxBits.Load())
}

// Quantile estimates the q-quantile (q clamped to [0, 1]) by linear
// interpolation within the bucket containing the target rank, in the style
// of Prometheus' histogram_quantile: each bucket's observations are
// assumed uniformly spread between its lower and upper edge (the first
// bucket interpolates from 0, or collapses to its bound when that bound is
// ≤ 0). The tracked maximum bounds the estimate on both sides of the top:
// ranks landing in the implicit +Inf bucket return it (the bucket has no
// upper edge, so clamping to the highest finite bound would silently
// understate the tail), and finite-bucket interpolation is capped at it (a
// sparse top bucket would otherwise report a p99 above the largest
// observation ever made). It returns NaN on an empty histogram, and the
// mean for a boundless count/sum histogram.
func (h *Histogram) Quantile(q float64) float64 {
	count := h.count.Load()
	if count == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	if len(h.bounds) == 0 {
		return h.Sum() / float64(count)
	}
	v := h.interpolate(q * float64(count))
	if m := h.Max(); v > m {
		return m
	}
	return v
}

// interpolate locates the bucket containing rank and interpolates inside
// it; ranks past every finite bucket yield +Inf for Quantile to cap.
func (h *Histogram) interpolate(rank float64) float64 {
	var cum int64
	for i, upper := range h.bounds {
		bc := h.buckets[i].Load()
		if float64(cum+bc) >= rank {
			if bc == 0 {
				// The rank lands exactly on a cumulative boundary of an
				// empty bucket; its upper edge is the tightest claim.
				return upper
			}
			lower := 0.0
			if i > 0 {
				lower = h.bounds[i-1]
			} else if upper <= 0 {
				return upper
			}
			return lower + (upper-lower)*(rank-float64(cum))/float64(bc)
		}
		cum += bc
	}
	return math.Inf(1)
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// kindOf tags a registry entry for the exposition writer.
type metricKind byte

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// entry is one registered metric. name may carry a Prometheus label set in
// braces, e.g. `sim_messages_total{kind="upload"}`; entries sharing a base
// name form one family in the exposition.
type entry struct {
	name string
	help string
	kind metricKind
	c    *Counter
	g    *Gauge
	h    *Histogram
}

// Registry holds named metrics and renders them in the Prometheus text
// exposition format. Registration is cheap but synchronised; hold on to
// the returned instrument and update it directly on the hot path.
type Registry struct {
	mu      sync.Mutex
	entries []entry
	byName  map[string]int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]int{}}
}

// Counter returns the counter registered under name, creating it on first
// use. Registering the same name with a different metric type panics.
func (r *Registry) Counter(name, help string) *Counter {
	e := r.lookup(name, help, kindCounter)
	return e.c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	e := r.lookup(name, help, kindGauge)
	return e.g
}

// Histogram returns the histogram registered under name, creating it with
// the given bounds on first use (later bounds are ignored).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i, ok := r.byName[name]; ok {
		if r.entries[i].kind != kindHistogram {
			panic(fmt.Sprintf("obs: metric %q re-registered as a different type", name))
		}
		return r.entries[i].h
	}
	e := entry{name: name, help: help, kind: kindHistogram, h: NewHistogram(bounds)}
	r.byName[name] = len(r.entries)
	r.entries = append(r.entries, e)
	return e.h
}

func (r *Registry) lookup(name, help string, kind metricKind) *entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i, ok := r.byName[name]; ok {
		if r.entries[i].kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered as a different type", name))
		}
		return &r.entries[i]
	}
	e := entry{name: name, help: help, kind: kind}
	switch kind {
	case kindCounter:
		e.c = &Counter{}
	case kindGauge:
		e.g = &Gauge{}
	}
	r.byName[name] = len(r.entries)
	r.entries = append(r.entries, e)
	return &r.entries[len(r.entries)-1]
}

// baseName strips a trailing {label="..."} set, yielding the family name.
func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// withLabel merges an extra label into a possibly-labelled metric name:
// withLabel(`m{a="1"}`, `le="5"`) == `m{a="1",le="5"}`.
func withLabel(name, label string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:len(name)-1] + "," + label + "}"
	}
	return name + "{" + label + "}"
}

// WriteText renders every registered metric in the Prometheus text
// exposition format (help and type comments once per family, samples in
// registration order).
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	entries := append([]entry(nil), r.entries...)
	r.mu.Unlock()

	bw := bufio.NewWriter(w)
	typeName := map[metricKind]string{kindCounter: "counter", kindGauge: "gauge", kindHistogram: "histogram"}
	seenFamily := map[string]bool{}
	for _, e := range entries {
		fam := baseName(e.name)
		if !seenFamily[fam] {
			seenFamily[fam] = true
			if e.help != "" {
				fmt.Fprintf(bw, "# HELP %s %s\n", fam, e.help)
			}
			fmt.Fprintf(bw, "# TYPE %s %s\n", fam, typeName[e.kind])
		}
		switch e.kind {
		case kindCounter:
			fmt.Fprintf(bw, "%s %d\n", e.name, e.c.Value())
		case kindGauge:
			fmt.Fprintf(bw, "%s %d\n", e.name, e.g.Value())
		case kindHistogram:
			suffixed := func(suffix string) string {
				if i := strings.IndexByte(e.name, '{'); i >= 0 {
					return e.name[:i] + suffix + e.name[i:]
				}
				return e.name + suffix
			}
			cum := int64(0)
			for i, b := range e.h.bounds {
				cum += e.h.buckets[i].Load()
				fmt.Fprintf(bw, "%s %d\n", withLabel(suffixed("_bucket"), `le="`+formatFloat(b)+`"`), cum)
			}
			cum += e.h.buckets[len(e.h.bounds)].Load()
			fmt.Fprintf(bw, "%s %d\n", withLabel(suffixed("_bucket"), `le="+Inf"`), cum)
			fmt.Fprintf(bw, "%s %s\n", suffixed("_sum"), formatFloat(e.h.Sum()))
			fmt.Fprintf(bw, "%s %d\n", suffixed("_count"), e.h.Count())
		}
	}
	return bw.Flush()
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
