package obs

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
)

// FuzzParseExposition checks the exposition parser two ways. Arbitrary
// bytes must never panic it. And the input, read as a recipe, builds a
// registry of counters, gauges and histograms, unlabelled and labelled by
// arbitrary byte strings, with ±Inf and NaN among the gauge values: what
// WriteExposition renders for it must parse back to exactly its family
// names, kinds, label values and values.
func FuzzParseExposition(f *testing.F) {
	var sb strings.Builder
	if err := fuzzRegistry([]byte("\x03a\"b\x00\x00\x00\x00\x00\x00\xf0\x3f\x01\x00\x00\x00\x00\x00\x00\x00\x00")).WriteExposition(&sb); err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(sb.String()))
	f.Add([]byte("edge_metric 42\nedge_inf +Inf\nedge_nan NaN 1712345678901\n"))
	f.Add([]byte("# HELP m help\n# TYPE m counter\nm{l=\"a\\\\b\\\"c\\nd}#,\"} 1\n"))
	f.Add([]byte("m{l=\"unterminated} 1\nm{l=\"v\"} 1 # {t=\"x\"} 1 2 3\n"))
	f.Add([]byte{})
	f.Add([]byte("\x07\\\n}{#,\"=\x02\xff\xff\xff\xff\xff\xff\xff\x7f"))

	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = ParseExposition(bytes.NewReader(data))

		reg := fuzzRegistry(data)
		var sb strings.Builder
		if err := reg.WriteExposition(&sb); err != nil {
			t.Fatal(err)
		}
		pm, err := ParseExposition(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("parse of own output: %v\n%s", err, sb.String())
		}
		series := 0
		for _, fam := range reg.Gather() {
			name := fam.Desc.Name
			if got := pm[name]; got == nil || got.Type != string(fam.Kind) || got.Help != fam.Desc.Help {
				t.Fatalf("family %s (%s): parsed %+v", name, fam.Kind, got)
			}
			series++
			if fam.Kind != KindHistogram {
				checkSeries(t, pm, name, fam, func(s Sample) float64 { return s.Value })
				continue
			}
			if len(fam.Samples) == 0 {
				continue // a histogram vec with no child writes no series
			}
			series += 3
			checkSeries(t, pm, name+"_count", fam, func(s Sample) float64 { return float64(s.Hist.Count()) })
			checkSeries(t, pm, name+"_sum", fam, func(s Sample) float64 { return s.Hist.Sum().Seconds() })
			inf := 0
			for _, s := range pm[name+"_bucket"].Samples {
				if s.Labels["le"] == "+Inf" {
					inf++
				}
			}
			if inf != len(fam.Samples) {
				t.Fatalf("%s: %d +Inf buckets for %d series\n%s", name, inf, len(fam.Samples), sb.String())
			}
		}
		if len(pm) != series {
			t.Fatalf("parsed %d families, wrote %d\n%s", len(pm), series, sb.String())
		}
	})
}

// checkSeries requires the parsed series name to hold exactly one sample
// per sample of fam, matched by fam's label value, with the value want
// gives (NaN equal to NaN).
func checkSeries(t *testing.T, pm ParsedMetrics, name string, fam Family, want func(Sample) float64) {
	t.Helper()
	got := map[string]float64{}
	for _, s := range pm[name].Samples {
		label := s.Labels[fam.Desc.Label]
		if _, dup := got[label]; dup {
			t.Fatalf("%s: label %q parsed twice", name, label)
		}
		got[label] = s.Value
	}
	if len(got) != len(fam.Samples) {
		t.Fatalf("%s: %d series parsed, %d written", name, len(got), len(fam.Samples))
	}
	for _, s := range fam.Samples {
		g, ok := got[s.Label]
		w := want(s)
		if !ok || !(g == w || math.IsNaN(g) && math.IsNaN(w)) {
			t.Fatalf("%s{%s=%q}: parsed %v (present %v), wrote %v", name, fam.Desc.Label, s.Label, g, ok, w)
		}
	}
}

// fuzzRegistry reads data as a list of entries — a byte k, a label value
// of k%16 bytes, 8 bytes of value — and records each one in every kind of
// family: labelled by the entry's label value and unlabelled. The families
// read the recipe's totals at scrape time.
func fuzzRegistry(data []byte) *Registry {
	var (
		records uint64
		last    float64
		steps   metrics.Latency
		edges   = map[string]*uint64{}
		levels  = map[string]*float64{}
		tasks   = map[string]*metrics.Latency{}
	)
	for len(data) > 0 {
		k := data[0]
		data = data[1:]
		n := min(int(k%16), len(data))
		label := string(data[:n])
		data = data[n:]
		var raw [8]byte
		data = data[copy(raw[:], data):]
		bits := binary.LittleEndian.Uint64(raw[:])
		v := math.Float64frombits(bits)
		switch k % 8 {
		case 0:
			v = math.Inf(1)
		case 1:
			v = math.Inf(-1)
		case 2:
			v = math.NaN()
		}
		d := time.Duration(bits % 1e10)
		records++
		last = v
		steps.Observe(d)
		if edges[label] == nil {
			edges[label], levels[label], tasks[label] = new(uint64), new(float64), new(metrics.Latency)
		}
		*edges[label] += bits
		*levels[label] = v
		tasks[label].Observe(d)
	}

	reg := NewRegistry()
	reg.CounterFunc("fz_records_total", "entries read", func() float64 { return float64(records) })
	reg.GaugeFunc("fz_last", "the last entry's value", func() float64 { return last })
	reg.HistogramFunc("fz_step_seconds", "every entry's duration", func() metrics.Latency { return steps })
	edgeVec := reg.CounterVec("fz_edge_total", "value per label", "edge")
	levelVec := reg.GaugeVec("fz_level", "value per label, non-finite included", "edge")
	taskVec := reg.HistogramVec("fz_task_seconds", "durations per label", "task")
	for label, e := range edges {
		l, tk := levels[label], tasks[label]
		edgeVec.SetFunc(label, func() float64 { return float64(*e) })
		levelVec.SetFunc(label, func() float64 { return *l })
		taskVec.SetFunc(label, func() metrics.Latency { return *tk })
	}
	return reg
}
