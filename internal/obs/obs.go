// Package obs is the runtime observability layer: a process-wide metrics
// registry unifying counters, gauges, and the log-bucketed latency
// histograms of internal/metrics behind one Collector interface with
// name/help metadata, plus a sampling span tracer (trace.go) that records
// tuple lineage end to end, and HTTP introspection endpoints (debug.go)
// serving Prometheus text exposition, recent traces, and pprof.
//
// Design constraints, in order:
//
//   - Hot paths stay hot. Counter and Gauge are single atomics; the Func
//     variants defer all work to scrape time; Histogram observation is one
//     mutex-protected bucket increment. Nothing in this package allocates
//     on the update path.
//   - Engines re-run. The experiment harness executes many topologies per
//     process, so the helper constructors are get-or-create (a re-run finds
//     its counter again) and the Func constructors are create-or-replace (a
//     callback rebinds to the most recent run's state). Strict duplicate
//     detection remains available through Register.
//   - No dependencies. The exposition format is written and parsed by hand
//     (expo.go); the module stays stdlib-only.
//
// Metric names are snake_case with a unit suffix where applicable
// (`_total` for counters, `_seconds` for histograms, bare nouns for
// gauges); registration rejects a name that breaks the convention or a
// metric without a help string, and TestEveryComponentRegistersItsMetrics
// (internal/remote) registers every component's metrics to prove none
// does. See docs/OBSERVABILITY.md for the catalogue.
package obs

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// Kind classifies a collector for the exposition TYPE line.
type Kind string

// The three collector kinds.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Desc is the identity and metadata of one metric family.
type Desc struct {
	// Name is the snake_case metric name.
	Name string
	// Help is a one-line description (mandatory; registration enforces it).
	Help string
	// Label is the single optional label key of the family ("" when
	// unlabeled). One key is enough for this system's per-edge and
	// per-task breakdowns and keeps exposition and parsing trivial.
	Label string
}

// Sample is one scraped value of a family: counters and gauges fill Value,
// histograms fill Hist.
type Sample struct {
	// Label is the label value ("" for unlabeled families).
	Label string
	// Value is the current counter or gauge reading.
	Value float64
	// Hist is the histogram snapshot (nil for counters and gauges).
	Hist *metrics.Latency
}

// Collector is one registered metric family.
type Collector interface {
	Desc() Desc
	Kind() Kind
	// Collect emits the family's current samples. Implementations must be
	// safe to call concurrently with updates.
	Collect(emit func(Sample))
}

// Family is one gathered metric family, ready for rendering.
type Family struct {
	Desc    Desc
	Kind    Kind
	Samples []Sample
}

// nameRe is the snake_case naming convention registration enforces.
var nameRe = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// Registry holds the collectors of one process (or one engine run).
type Registry struct {
	mu sync.Mutex
	cs map[string]Collector // guarded by mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{cs: make(map[string]Collector)}
}

// Register adds c, rejecting invalid names, empty help, and duplicates.
func (r *Registry) Register(c Collector) error {
	d := c.Desc()
	if !nameRe.MatchString(d.Name) {
		return fmt.Errorf("obs: metric name %q is not snake_case", d.Name)
	}
	if d.Help == "" {
		return fmt.Errorf("obs: metric %q has no help string", d.Name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.cs[d.Name]; dup {
		return fmt.Errorf("obs: metric %q already registered", d.Name)
	}
	r.cs[d.Name] = c
	return nil
}

// MustRegister is Register panicking on error, for init-time wiring.
func (r *Registry) MustRegister(c Collector) {
	if err := r.Register(c); err != nil {
		panic(err)
	}
}

// getOrCreate returns the collector under name when its kind matches,
// creating it with make otherwise. A name collision across kinds panics:
// that is a programming error, not a runtime condition.
func (r *Registry) getOrCreate(name string, kind Kind, make func() Collector) Collector {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.cs[name]; ok {
		if c.Kind() != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s, was %s", name, kind, c.Kind()))
		}
		return c
	}
	c := make()
	d := c.Desc()
	if !nameRe.MatchString(d.Name) {
		panic(fmt.Sprintf("obs: metric name %q is not snake_case", d.Name))
	}
	if d.Help == "" {
		panic(fmt.Sprintf("obs: metric %q has no help string", d.Name))
	}
	r.cs[name] = c
	return c
}

// replace installs c under its name unconditionally (create-or-replace
// semantics for the Func collectors, whose callbacks must rebind to the
// most recent engine run).
func (r *Registry) replace(c Collector) {
	d := c.Desc()
	if !nameRe.MatchString(d.Name) {
		panic(fmt.Sprintf("obs: metric name %q is not snake_case", d.Name))
	}
	if d.Help == "" {
		panic(fmt.Sprintf("obs: metric %q has no help string", d.Name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cs[d.Name] = c
}

// Reset drops every collector, returning the registry to empty. The bench
// harness calls it between experiments so each -json snapshot reflects one
// experiment only.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cs = make(map[string]Collector)
}

// Gather snapshots every family, sorted by name.
func (r *Registry) Gather() []Family {
	r.mu.Lock()
	cs := make([]Collector, 0, len(r.cs))
	for _, c := range r.cs {
		cs = append(cs, c)
	}
	r.mu.Unlock()
	sort.Slice(cs, func(i, j int) bool { return cs[i].Desc().Name < cs[j].Desc().Name })
	fams := make([]Family, 0, len(cs))
	for _, c := range cs {
		f := Family{Desc: c.Desc(), Kind: c.Kind()}
		c.Collect(func(s Sample) { f.Samples = append(f.Samples, s) })
		sort.SliceStable(f.Samples, func(i, j int) bool { return f.Samples[i].Label < f.Samples[j].Label })
		fams = append(fams, f)
	}
	return fams
}

// ------------------------------------------------------------- counter --

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	desc Desc
	v    atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Desc implements Collector.
func (c *Counter) Desc() Desc { return c.desc }

// Kind implements Collector.
func (c *Counter) Kind() Kind { return KindCounter }

// Collect implements Collector.
func (c *Counter) Collect(emit func(Sample)) {
	emit(Sample{Value: float64(c.v.Load())})
}

// Counter returns the registered counter, creating it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	return r.getOrCreate(name, KindCounter, func() Collector {
		return &Counter{desc: Desc{Name: name, Help: help}}
	}).(*Counter)
}

// --------------------------------------------------------------- gauge --

// Gauge is an atomic float64 gauge.
type Gauge struct {
	desc Desc
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta (CAS loop; gauges are low-frequency).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Value returns the current reading.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Desc implements Collector.
func (g *Gauge) Desc() Desc { return g.desc }

// Kind implements Collector.
func (g *Gauge) Kind() Kind { return KindGauge }

// Collect implements Collector.
func (g *Gauge) Collect(emit func(Sample)) { emit(Sample{Value: g.Value()}) }

// Gauge returns the registered gauge, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.getOrCreate(name, KindGauge, func() Collector {
		return &Gauge{desc: Desc{Name: name, Help: help}}
	}).(*Gauge)
}

// ----------------------------------------------------------- histogram --

// Histogram is a concurrency-safe log2-bucketed duration histogram.
type Histogram struct {
	desc Desc
	h    metrics.SyncLatency
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) { h.h.Observe(d) }

// Snapshot returns the current histogram contents.
func (h *Histogram) Snapshot() metrics.Latency { return h.h.Snapshot() }

// Desc implements Collector.
func (h *Histogram) Desc() Desc { return h.desc }

// Kind implements Collector.
func (h *Histogram) Kind() Kind { return KindHistogram }

// Collect implements Collector.
func (h *Histogram) Collect(emit func(Sample)) {
	s := h.h.Snapshot()
	emit(Sample{Hist: &s})
}

// Histogram returns the registered histogram, creating it on first use.
func (r *Registry) Histogram(name, help string) *Histogram {
	return r.getOrCreate(name, KindHistogram, func() Collector {
		return &Histogram{desc: Desc{Name: name, Help: help}}
	}).(*Histogram)
}

// ------------------------------------------------------ func collectors --

// funcCollector defers the reading to scrape time: the callback typically
// loads an atomic owned by the instrumented subsystem, so the hot path
// pays nothing beyond the counter it already maintains.
type funcCollector struct {
	desc Desc
	kind Kind
	f    func() float64
}

// Desc implements Collector.
func (fc *funcCollector) Desc() Desc { return fc.desc }

// Kind implements Collector.
func (fc *funcCollector) Kind() Kind { return fc.kind }

// Collect implements Collector.
func (fc *funcCollector) Collect(emit func(Sample)) { emit(Sample{Value: fc.f()}) }

// CounterFunc registers (or rebinds) a counter whose value is read by f at
// scrape time.
func (r *Registry) CounterFunc(name, help string, f func() float64) {
	r.replace(&funcCollector{desc: Desc{Name: name, Help: help}, kind: KindCounter, f: f})
}

// GaugeFunc registers (or rebinds) a gauge whose value is read by f at
// scrape time.
func (r *Registry) GaugeFunc(name, help string, f func() float64) {
	r.replace(&funcCollector{desc: Desc{Name: name, Help: help}, kind: KindGauge, f: f})
}

// histFuncCollector reads a histogram snapshot at scrape time.
type histFuncCollector struct {
	desc Desc
	f    func() metrics.Latency
}

// Desc implements Collector.
func (hc *histFuncCollector) Desc() Desc { return hc.desc }

// Kind implements Collector.
func (hc *histFuncCollector) Kind() Kind { return KindHistogram }

// Collect implements Collector.
func (hc *histFuncCollector) Collect(emit func(Sample)) {
	s := hc.f()
	emit(Sample{Hist: &s})
}

// HistogramFunc registers (or rebinds) a histogram whose contents are
// snapshotted by f at scrape time — the adapter for subsystems that already
// maintain a metrics.SyncLatency.
func (r *Registry) HistogramFunc(name, help string, f func() metrics.Latency) {
	r.replace(&histFuncCollector{desc: Desc{Name: name, Help: help}, f: f})
}

// ------------------------------------------------------------ vec types --

// vec is the shared labeled-children machinery of the *Vec collectors.
type vec struct {
	desc Desc
	kind Kind
	mu   sync.Mutex
	kids map[string]Collector // guarded by mu
}

// Desc implements Collector.
func (v *vec) Desc() Desc { return v.desc }

// Kind implements Collector.
func (v *vec) Kind() Kind { return v.kind }

// Collect implements Collector.
func (v *vec) Collect(emit func(Sample)) {
	v.mu.Lock()
	labels := make([]string, 0, len(v.kids))
	for l := range v.kids {
		labels = append(labels, l)
	}
	kids := make([]Collector, 0, len(v.kids))
	sort.Strings(labels)
	for _, l := range labels {
		kids = append(kids, v.kids[l])
	}
	v.mu.Unlock()
	for i, c := range kids {
		label := labels[i]
		c.Collect(func(s Sample) {
			s.Label = label
			emit(s)
		})
	}
}

// child returns the labeled child, creating it with make on first use.
func (v *vec) child(label string, make func() Collector) Collector {
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.kids[label]
	if !ok {
		c = make()
		v.kids[label] = c
	}
	return c
}

// set replaces the labeled child (Func rebinding).
func (v *vec) set(label string, c Collector) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.kids[label] = c
}

// CounterVec is a counter family keyed by one label.
type CounterVec struct{ vec }

// With returns the child counter for the label value.
func (cv *CounterVec) With(label string) *Counter {
	return cv.child(label, func() Collector { return &Counter{desc: cv.desc} }).(*Counter)
}

// CounterVec returns the registered labeled counter family.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	return r.getOrCreate(name, KindCounter, func() Collector {
		return &CounterVec{vec{desc: Desc{Name: name, Help: help, Label: label}, kind: KindCounter, kids: map[string]Collector{}}}
	}).(*CounterVec)
}

// GaugeVec is a gauge family keyed by one label.
type GaugeVec struct{ vec }

// With returns the child gauge for the label value.
func (gv *GaugeVec) With(label string) *Gauge {
	return gv.child(label, func() Collector { return &Gauge{desc: gv.desc} }).(*Gauge)
}

// GaugeVec returns the registered labeled gauge family.
func (r *Registry) GaugeVec(name, help, label string) *GaugeVec {
	return r.getOrCreate(name, KindGauge, func() Collector {
		return &GaugeVec{vec{desc: Desc{Name: name, Help: help, Label: label}, kind: KindGauge, kids: map[string]Collector{}}}
	}).(*GaugeVec)
}

// SetFunc binds (or rebinds) the labeled child to a scrape-time callback.
func (gv *GaugeVec) SetFunc(label string, f func() float64) {
	gv.set(label, &funcCollector{desc: gv.desc, kind: KindGauge, f: f})
}

// SetFunc binds (or rebinds) the labeled child to a scrape-time callback.
func (cv *CounterVec) SetFunc(label string, f func() float64) {
	cv.set(label, &funcCollector{desc: cv.desc, kind: KindCounter, f: f})
}

// HistogramVec is a histogram family keyed by one label.
type HistogramVec struct{ vec }

// With returns the child histogram for the label value.
func (hv *HistogramVec) With(label string) *Histogram {
	return hv.child(label, func() Collector { return &Histogram{desc: hv.desc} }).(*Histogram)
}

// SetFunc binds (or rebinds) the labeled child to a snapshot callback.
func (hv *HistogramVec) SetFunc(label string, f func() metrics.Latency) {
	hv.set(label, &histFuncCollector{desc: hv.desc, f: f})
}

// HistogramVec returns the registered labeled histogram family.
func (r *Registry) HistogramVec(name, help, label string) *HistogramVec {
	return r.getOrCreate(name, KindHistogram, func() Collector {
		return &HistogramVec{vec{desc: Desc{Name: name, Help: help, Label: label}, kind: KindHistogram, kids: map[string]Collector{}}}
	}).(*HistogramVec)
}
