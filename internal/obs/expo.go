// Prometheus text exposition: writing (WriteExposition), parsing
// (ParseExposition — what the promcheck validator reads a live /metrics
// with), and the JSON-friendly Snapshot the bench harness embeds in its
// artifacts. Format reference: the Prometheus text format 0.0.4 —
// `# HELP`/`# TYPE` comments followed by `name{label="value"} number`
// sample lines; histograms expose cumulative `_bucket{le="..."}` series
// plus `_sum` and `_count`.
package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/metrics"
)

// ExpositionContentType is the Content-Type of the /metrics endpoint.
const ExpositionContentType = "text/plain; version=0.0.4; charset=utf-8"

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// formatValue renders a sample value the way Prometheus expects.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}

// writeSeries writes one sample line with up to two label pairs.
func writeSeries(w io.Writer, name string, pairs [][2]string, value string) error {
	if len(pairs) == 0 {
		_, err := fmt.Fprintf(w, "%s %s\n", name, value)
		return err
	}
	parts := make([]string, len(pairs))
	for i, p := range pairs {
		parts[i] = p[0] + `="` + escapeLabel(p[1]) + `"`
	}
	_, err := fmt.Fprintf(w, "%s{%s} %s\n", name, strings.Join(parts, ","), value)
	return err
}

// WriteExposition renders the registry in Prometheus text format, families
// sorted by name, label values sorted within a family. Histogram bucket
// bounds are emitted in seconds.
func (r *Registry) WriteExposition(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, fam := range r.Gather() {
		if _, err := fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s %s\n",
			fam.Desc.Name, fam.Desc.Help, fam.Desc.Name, fam.Kind); err != nil {
			return err
		}
		for _, s := range fam.Samples {
			var base [][2]string
			if fam.Desc.Label != "" {
				base = append(base, [2]string{fam.Desc.Label, s.Label})
			}
			if fam.Kind != KindHistogram {
				if err := writeSeries(bw, fam.Desc.Name, base, formatValue(s.Value)); err != nil {
					return err
				}
				continue
			}
			if err := writeHistogram(bw, fam.Desc.Name, base, s.Hist); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// writeHistogram renders one histogram sample as cumulative buckets plus
// _sum and _count, bounds in seconds.
func writeHistogram(w io.Writer, name string, base [][2]string, h *metrics.Latency) error {
	var cum uint64
	for _, b := range h.Buckets() {
		if b.Hi == time.Duration(math.MaxInt64) {
			continue // folded into the trailing +Inf bucket
		}
		cum += b.Count
		pairs := append(append([][2]string(nil), base...), [2]string{"le", formatValue(b.Hi.Seconds())})
		if err := writeSeries(w, name+"_bucket", pairs, strconv.FormatUint(cum, 10)); err != nil {
			return err
		}
	}
	pairs := append(append([][2]string(nil), base...), [2]string{"le", "+Inf"})
	if err := writeSeries(w, name+"_bucket", pairs, strconv.FormatUint(h.Count(), 10)); err != nil {
		return err
	}
	if err := writeSeries(w, name+"_sum", base, formatValue(h.Sum().Seconds())); err != nil {
		return err
	}
	return writeSeries(w, name+"_count", base, strconv.FormatUint(h.Count(), 10))
}

// ------------------------------------------------------------- parsing --

// ParsedSample is one scraped series: its labels and value, plus the
// optional timestamp carried on the line.
type ParsedSample struct {
	Labels map[string]string
	Value  float64
	// TimestampMs is the optional sample timestamp (0 when absent).
	TimestampMs int64
}

// ParsedFamily is one scraped metric family.
type ParsedFamily struct {
	Name    string
	Type    string // from # TYPE; "" when the scrape carried none
	Help    string
	Samples []ParsedSample
}

// ParsedMetrics indexes a scrape by family name. Histogram series land
// under their full series name (name_bucket, name_sum, name_count).
type ParsedMetrics map[string]*ParsedFamily

// Value returns the single unlabeled (or first) sample value of a family,
// or def when absent.
func (pm ParsedMetrics) Value(name string, def float64) float64 {
	f, ok := pm[name]
	if !ok || len(f.Samples) == 0 {
		return def
	}
	return f.Samples[0].Value
}

// sampleRe is intentionally not a regexp: the format is simple enough that
// a hand parser is both faster and clearer about what it rejects.

// ParseExposition parses Prometheus text exposition. Every non-comment,
// non-blank line must be a well-formed sample; the error names the first
// offending line. An empty scrape (no samples at all) is an error, so a
// misrouted endpoint (HTML, JSON) fails loudly.
func ParseExposition(r io.Reader) (ParsedMetrics, error) {
	out := make(ParsedMetrics)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineno := 0
	samples := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := parseComment(line, out); err != nil {
				return nil, fmt.Errorf("obs: exposition line %d: %w", lineno, err)
			}
			continue
		}
		if err := parseSample(line, out); err != nil {
			return nil, fmt.Errorf("obs: exposition line %d: %w", lineno, err)
		}
		samples++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if samples == 0 {
		return nil, fmt.Errorf("obs: exposition contains no samples")
	}
	return out, nil
}

// parseComment handles # HELP and # TYPE lines (other comments are legal
// and ignored).
func parseComment(line string, out ParsedMetrics) error {
	fields := strings.Fields(line)
	if len(fields) < 3 {
		return nil // bare comment
	}
	switch fields[1] {
	case "TYPE":
		if len(fields) != 4 {
			return fmt.Errorf("malformed TYPE comment %q", line)
		}
		fam := familyFor(out, fields[2])
		fam.Type = fields[3]
	case "HELP":
		fam := familyFor(out, fields[2])
		fam.Help = strings.Join(fields[3:], " ")
	}
	return nil
}

func familyFor(out ParsedMetrics, name string) *ParsedFamily {
	fam, ok := out[name]
	if !ok {
		fam = &ParsedFamily{Name: name}
		out[name] = fam
	}
	return fam
}

// parseSample parses `name{k="v",...} value [timestamp]` into its family.
// The label set is scanned quote-aware — values may contain escaped
// quotes, backslashes, newlines, and even `}` or `#` — so the scan never
// confuses a byte inside a quoted value with syntax.
func parseSample(line string, out ParsedMetrics) error {
	name := line
	labels := map[string]string{}
	rest := ""
	if i := strings.IndexAny(line, "{ \t"); i >= 0 {
		name = line[:i]
		if line[i] == '{' {
			var err error
			labels, rest, err = scanLabelSet(line[i:])
			if err != nil {
				return fmt.Errorf("%w in %q", err, line)
			}
		} else {
			rest = line[i:]
		}
		rest = strings.TrimSpace(rest)
	} else {
		return fmt.Errorf("sample line %q has no value", line)
	}
	if !nameRe.MatchString(name) {
		return fmt.Errorf("metric name %q is not snake_case", name)
	}
	sample := ParsedSample{Labels: labels}
	fields := strings.Fields(rest)
	switch len(fields) {
	case 1:
	case 2:
		ts, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return fmt.Errorf("bad timestamp %q: %w", fields[1], err)
		}
		sample.TimestampMs = ts
	default:
		return fmt.Errorf("sample line %q has no value", line)
	}
	v, err := parseNumber(fields[0])
	if err != nil {
		return fmt.Errorf("bad value %q: %w", fields[0], err)
	}
	sample.Value = v
	fam := familyFor(out, name)
	fam.Samples = append(fam.Samples, sample)
	return nil
}

// parseNumber accepts Go floats plus the exposition spellings of infinity.
func parseNumber(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// scanLabelSet consumes a leading `{k="v",...}` group and returns the
// labels plus whatever follows the closing brace. The scan tracks quoting
// through scanQuoted, so `}`/`#`/`,` inside a quoted value never
// terminate the set early.
func scanLabelSet(s string) (map[string]string, string, error) {
	if len(s) == 0 || s[0] != '{' {
		return nil, "", fmt.Errorf("label set %q does not start with {", s)
	}
	labels := map[string]string{}
	s = s[1:]
	for {
		s = strings.TrimSpace(s)
		if len(s) == 0 {
			return nil, "", fmt.Errorf("unterminated label set")
		}
		if s[0] == '}' {
			return labels, s[1:], nil
		}
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return nil, "", fmt.Errorf("label pair %q has no =", s)
		}
		key := strings.TrimSpace(s[:eq])
		s = strings.TrimSpace(s[eq+1:])
		if len(s) == 0 || s[0] != '"' {
			return nil, "", fmt.Errorf("label %q value is not quoted", key)
		}
		val, rest, err := scanQuoted(s)
		if err != nil {
			return nil, "", err
		}
		labels[key] = val
		s = strings.TrimSpace(rest)
		if len(s) > 0 && s[0] == ',' {
			s = s[1:]
		}
	}
}

// scanQuoted consumes a leading quoted string with \\, \", \n escapes.
func scanQuoted(s string) (val, rest string, err error) {
	var b strings.Builder
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			if i+1 >= len(s) {
				return "", "", fmt.Errorf("dangling escape in %q", s)
			}
			i++
			switch s[i] {
			case 'n':
				b.WriteByte('\n')
			default:
				b.WriteByte(s[i])
			}
		case '"':
			return b.String(), s[i+1:], nil
		default:
			b.WriteByte(s[i])
		}
	}
	return "", "", fmt.Errorf("unterminated quoted string in %q", s)
}

// ------------------------------------------------------------ snapshot --

// SampleSnapshot is one sample in JSON form. Histogram samples carry
// count/mean and the headline quantiles in microseconds — the shape BENCH
// artifacts want — instead of raw buckets.
type SampleSnapshot struct {
	Label  string  `json:"label,omitempty"`
	Value  float64 `json:"value,omitempty"`
	Count  uint64  `json:"count,omitempty"`
	MeanUs float64 `json:"mean_us,omitempty"`
	P50Us  float64 `json:"p50_us,omitempty"`
	P99Us  float64 `json:"p99_us,omitempty"`
	MaxUs  float64 `json:"max_us,omitempty"`
}

// MetricSnapshot is one family in JSON form.
type MetricSnapshot struct {
	Name    string           `json:"name"`
	Kind    string           `json:"kind"`
	Help    string           `json:"help,omitempty"`
	Label   string           `json:"label,omitempty"`
	Samples []SampleSnapshot `json:"samples"`
}

// Snapshot renders every family for JSON embedding, sorted by name.
func (r *Registry) Snapshot() []MetricSnapshot {
	fams := r.Gather()
	out := make([]MetricSnapshot, 0, len(fams))
	for _, fam := range fams {
		ms := MetricSnapshot{Name: fam.Desc.Name, Kind: string(fam.Kind), Help: fam.Desc.Help, Label: fam.Desc.Label}
		for _, s := range fam.Samples {
			ss := SampleSnapshot{Label: s.Label, Value: s.Value}
			if s.Hist != nil {
				ss.Value = 0
				ss.Count = s.Hist.Count()
				ss.MeanUs = float64(s.Hist.Mean()) / 1e3
				ss.P50Us = float64(s.Hist.Quantile(0.5)) / 1e3
				ss.P99Us = float64(s.Hist.Quantile(0.99)) / 1e3
				ss.MaxUs = float64(s.Hist.Max()) / 1e3
			}
			ms.Samples = append(ms.Samples, ss)
		}
		out = append(out, ms)
	}
	return out
}
