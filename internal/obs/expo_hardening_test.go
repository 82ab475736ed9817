package obs

import (
	"math"
	"strings"
	"testing"
)

// TestExpositionEscapedLabelRoundTrip drives nasty label values through
// the writer and back through the parser: backslashes, quotes, newlines,
// and syntax bytes (`}`, `#`, `,`) inside values must all survive.
func TestExpositionEscapedLabelRoundTrip(t *testing.T) {
	nasty := []string{
		`back\slash`,
		`qu"ote`,
		"new\nline",
		`brace}inside`,
		`hash#inside`,
		`comma,inside`,
		`all\of"them}#,` + "\n" + `mixed`,
	}
	reg := NewRegistry()
	vec := reg.GaugeVec("escape_test_gauge", "escape torture", "edge")
	for i, v := range nasty {
		vec.With(v).Set(float64(i + 1))
	}
	var sb strings.Builder
	if err := reg.WriteExposition(&sb); err != nil {
		t.Fatal(err)
	}
	pm, err := ParseExposition(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("parse of own output failed: %v\n%s", err, sb.String())
	}
	fam := pm["escape_test_gauge"]
	if fam == nil {
		t.Fatalf("family missing from round trip:\n%s", sb.String())
	}
	got := map[string]float64{}
	for _, s := range fam.Samples {
		got[s.Labels["edge"]] = s.Value
	}
	for i, v := range nasty {
		if got[v] != float64(i+1) {
			t.Errorf("label %q round-tripped to %v (want %d); full keys: %q", v, got[v], i+1, keysOf(got))
		}
	}
}

func keysOf(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestExpositionNonFiniteValues covers +Inf/-Inf/NaN sample values in both
// directions.
func TestExpositionNonFiniteValues(t *testing.T) {
	for _, tc := range []struct {
		text string
		chk  func(float64) bool
	}{
		{"edge_metric 42\nedge_inf +Inf\n", func(v float64) bool { return math.IsInf(v, 1) }},
		{"edge_metric 42\nedge_inf Inf\n", func(v float64) bool { return math.IsInf(v, 1) }},
		{"edge_metric 42\nedge_inf -Inf\n", func(v float64) bool { return math.IsInf(v, -1) }},
		{"edge_metric 42\nedge_inf NaN\n", math.IsNaN},
	} {
		pm, err := ParseExposition(strings.NewReader(tc.text))
		if err != nil {
			t.Fatalf("%q: %v", tc.text, err)
		}
		if v := pm.Value("edge_inf", 0); !tc.chk(v) {
			t.Errorf("%q parsed to %v", tc.text, v)
		}
	}
	if formatValue(math.Inf(1)) != "+Inf" || formatValue(math.Inf(-1)) != "-Inf" {
		t.Error("formatValue must spell infinities the exposition way")
	}
}

// TestExpositionSampleTimestamps covers the optional trailing millisecond
// timestamp on sample lines.
func TestExpositionSampleTimestamps(t *testing.T) {
	pm, err := ParseExposition(strings.NewReader("stamped_total 5 1712345678901\n"))
	if err != nil {
		t.Fatal(err)
	}
	s := pm["stamped_total"].Samples[0]
	if s.Value != 5 || s.TimestampMs != 1712345678901 {
		t.Fatalf("sample = %+v", s)
	}
}

// TestExpositionMalformedLinesRejected pins down the failure modes the
// hardened parser must still reject.
func TestExpositionMalformedLinesRejected(t *testing.T) {
	for _, bad := range []string{
		`m{l="unterminated} 1`,
		`m{l="dangling\} 1`,
		`m{l=unquoted} 1`,
		`m{l="v"} 1 2 3`,
		`m{l="v"} 1 # notbrace 2`,
		`m{l="v"} 1 # {t="x"} `,
		`m{l="v"} 1 # {t="x"} 1 2 3`,
		`m{l="v"}`,
		`Bad-Name 1`,
	} {
		if _, err := ParseExposition(strings.NewReader(bad + "\n")); err == nil {
			t.Errorf("ParseExposition accepted %q", bad)
		}
	}
}
