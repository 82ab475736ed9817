// Package obs is the runtime observability layer: a metrics registry of
// scrape-time readers over state each subsystem owns (its atomics and the
// log-bucketed latency histograms of internal/metrics), plus a bounded
// event journal (journal.go) and HTTP introspection endpoints (debug.go)
// serving Prometheus text exposition, the journal, and pprof.
//
// Design constraints, in order:
//
//   - Hot paths stay hot. The registry holds no instrument of its own:
//     every series is a reader (CounterFunc, GaugeFunc, HistogramFunc, a
//     *Vec's SetFunc) that the registry calls at scrape time, so the
//     update path is whatever counter the subsystem already keeps.
//   - Engines re-run. The experiment harness executes many topologies per
//     process, so registering a name again rebinds its reader: a registry
//     describes the most recent run of each component.
//   - No dependencies. The exposition format is written and parsed by hand
//     (expo.go); the module stays stdlib-only.
//
// Metric names are snake_case with a unit suffix where applicable
// (`_total` for counters, `_seconds` for histograms, bare nouns for
// gauges); registration panics on a name that breaks the convention, a
// metric without a help string, or a name reused with another kind or
// label key, and TestEveryComponentRegistersItsMetrics (internal/remote)
// registers every component's metrics to prove none does. See
// docs/OBSERVABILITY.md for the catalogue.
package obs

import (
	"fmt"
	"regexp"
	"sort"
	"sync"

	"repro/internal/metrics"
)

// Kind classifies a family for the exposition TYPE line.
type Kind string

// The three family kinds.
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

// Family is one gathered metric family, ready for rendering.
type Family struct {
	Desc    Desc
	Kind    Kind
	Samples []Sample
}

// nameRe is the snake_case naming convention registration enforces.
var nameRe = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// Registry maps each metric name to its family.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family // guarded by mu, and so is each family's readers
}

// family is one registered metric family: a reader per label value, ""
// being the label of an unlabeled family.
type family struct {
	desc    Desc
	kind    Kind
	readers map[string]func() Sample
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// family returns a handle on the family named d.Name, creating it on first
// use. A name that is not snake_case, an empty help string, or a name
// reused with another kind or label key panics: each is a programming
// error, not a runtime condition.
func (r *Registry) family(d Desc, kind Kind) vec {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[d.Name]; ok {
		if f.kind != kind || f.desc.Label != d.Label {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s labelled %q, was %s labelled %q",
				d.Name, kind, d.Label, f.kind, f.desc.Label))
		}
		return vec{r, f}
	}
	if !nameRe.MatchString(d.Name) {
		panic(fmt.Sprintf("obs: metric name %q is not snake_case", d.Name))
	}
	if d.Help == "" {
		panic(fmt.Sprintf("obs: metric %q has no help string", d.Name))
	}
	f := &family{desc: d, kind: kind, readers: make(map[string]func() Sample)}
	r.fams[d.Name] = f
	return vec{r, f}
}

// Gather reads every family, sorted by name, its samples sorted by label
// value. The readers run under the registry's lock, so a reader must not
// register.
func (r *Registry) Gather() []Family {
	r.mu.Lock()
	defer r.mu.Unlock()
	fams := make([]Family, 0, len(r.fams))
	for _, f := range r.fams {
		fam := Family{Desc: f.desc, Kind: f.kind}
		for label, read := range f.readers {
			s := read()
			s.Label = label
			fam.Samples = append(fam.Samples, s)
		}
		sort.Slice(fam.Samples, func(i, j int) bool { return fam.Samples[i].Label < fam.Samples[j].Label })
		fams = append(fams, fam)
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].Desc.Name < fams[j].Desc.Name })
	return fams
}

// value adapts a counter or gauge reading to a sample reader.
func value(f func() float64) func() Sample {
	return func() Sample { return Sample{Value: f()} }
}

// hist adapts a histogram snapshot to a sample reader.
func hist(f func() metrics.Latency) func() Sample {
	return func() Sample {
		s := f()
		return Sample{Hist: &s}
	}
}

// CounterFunc registers (or rebinds) a counter whose value is read by f at
// scrape time.
func (r *Registry) CounterFunc(name, help string, f func() float64) {
	r.family(Desc{Name: name, Help: help}, KindCounter).set("", value(f))
}

// GaugeFunc registers (or rebinds) a gauge whose value is read by f at
// scrape time.
func (r *Registry) GaugeFunc(name, help string, f func() float64) {
	r.family(Desc{Name: name, Help: help}, KindGauge).set("", value(f))
}

// HistogramFunc registers (or rebinds) a histogram whose contents are
// snapshotted by f at scrape time — the adapter for subsystems that already
// maintain a metrics.SyncLatency.
func (r *Registry) HistogramFunc(name, help string, f func() metrics.Latency) {
	r.family(Desc{Name: name, Help: help}, KindHistogram).set("", hist(f))
}

// vec is a handle on one registered family, the shared part of the *Vec
// types.
type vec struct {
	r *Registry
	f *family
}

// set binds (or rebinds) the reader of a label value.
func (v vec) set(label string, read func() Sample) {
	v.r.mu.Lock()
	defer v.r.mu.Unlock()
	v.f.readers[label] = read
}

// CounterVec is a counter family keyed by one label.
type CounterVec struct{ vec }

// CounterVec returns the registered labeled counter family, creating it on
// first use.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	return &CounterVec{r.family(Desc{Name: name, Help: help, Label: label}, KindCounter)}
}

// SetFunc binds (or rebinds) the labeled child to a scrape-time callback.
func (cv *CounterVec) SetFunc(label string, f func() float64) { cv.set(label, value(f)) }

// GaugeVec is a gauge family keyed by one label.
type GaugeVec struct{ vec }

// GaugeVec returns the registered labeled gauge family, creating it on
// first use.
func (r *Registry) GaugeVec(name, help, label string) *GaugeVec {
	return &GaugeVec{r.family(Desc{Name: name, Help: help, Label: label}, KindGauge)}
}

// SetFunc binds (or rebinds) the labeled child to a scrape-time callback.
func (gv *GaugeVec) SetFunc(label string, f func() float64) { gv.set(label, value(f)) }

// HistogramVec is a histogram family keyed by one label.
type HistogramVec struct{ vec }

// HistogramVec returns the registered labeled histogram family, creating
// it on first use.
func (r *Registry) HistogramVec(name, help, label string) *HistogramVec {
	return &HistogramVec{r.family(Desc{Name: name, Help: help, Label: label}, KindHistogram)}
}

// SetFunc binds (or rebinds) the labeled child to a snapshot callback.
func (hv *HistogramVec) SetFunc(label string, f func() metrics.Latency) { hv.set(label, hist(f)) }
