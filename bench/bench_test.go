package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// testScale runs every workload at a hundredth of its benchmark size.
const testScale = 0.01

// testMachine builds the reference kernel once for all tests.
var testMachine = sync.OnceValue(newRefKernel)

func mustSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// mustRun runs j at test scale with the open-loop pass on a clock that
// moves one microsecond per reading, so the run neither waits for arrivals
// nor depends on how fast or busy this machine is.
func mustRun(t *testing.T, spec *benchSpec, j *job, seed int64, trace bool) *runResult {
	t.Helper()
	ticking := *j
	ticking.newPacer = func() pacer { return (&fakeClock{tick: time.Microsecond}).pacer() }
	res, err := runWorkload(spec, testMachine(), &ticking, seed, testScale, trace)
	if err != nil {
		t.Fatalf("%s seed %d trace %v: %v", j.name, seed, trace, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s seed %d trace %v: correct=%v failed=%d attempted=%d\n%s",
			j.name, seed, trace, res.Correct, res.Failed, res.Attempted, strings.Join(res.Notes, "\n"))
	}
	return res
}

// countMetrics are exact counts of work: they must repeat bit for bit for
// one seed, whatever the scheduling, and move with the seed.
var countMetrics = []string{
	"results",
	"bundle.scanned_per_rec", "bundle.candidates_per_rec", "bundle.verified_per_rec",
	"similarity.verify_steps_per_rec", "dispatch.fanout_per_rec", "wire.bytes_per_rec",
}

func countsOf(res *runResult) map[string]float64 {
	out := map[string]float64{}
	for _, name := range countMetrics {
		out[name] = res.Metrics[name].Value
	}
	return out
}

func TestWorkloadsEmitEveryDeclaredMetric(t *testing.T) {
	spec := mustSpec(t)
	if len(spec.Workloads) != len(jobs) {
		t.Fatalf("BENCHMARK.json declares %d workloads, bench defines %d", len(spec.Workloads), len(jobs))
	}
	nameOK := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for i := range jobs {
		j := &jobs[i]
		t.Run(j.name, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				res := mustRun(t, spec, j, 11, trace)
				want := spec.metrics(trace)
				if len(res.Metrics) != len(want) {
					t.Errorf("trace %v: %d metrics emitted, %d declared", trace, len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("trace %v: %s not emitted", trace, m.Name)
						continue
					}
					if !nameOK.MatchString(m.Name) || got.Unit == "" || got.Unit != m.Unit {
						t.Errorf("trace %v: %s has unit %q, declared %q", trace, m.Name, got.Unit, m.Unit)
					}
					if !trace && !(got.Value > 0) {
						t.Errorf("end-to-end %s = %v, want > 0", m.Name, got.Value)
					}
				}
				if trace {
					checkSpans(t, res.spans)
				}
			}
		})
	}
}

// checkSpans verifies the span file's shape: one root per sampled record,
// every child inside its parent and sharing its record.
func checkSpans(t *testing.T, spans []span) {
	t.Helper()
	roots := 0
	for _, s := range spans {
		if s.EndNs < s.StartNs {
			t.Errorf("span %d %s ends before it starts", s.ID, s.Name)
		}
		if s.Parent < 0 {
			roots++
			if s.Name != "record" {
				t.Errorf("root span %d is named %q", s.ID, s.Name)
			}
			continue
		}
		p := spans[s.Parent]
		if p.Name != "record" || p.Record != s.Record || s.StartNs < p.StartNs || s.EndNs > p.EndNs {
			t.Errorf("span %d %s [%d,%d] of record %d lies outside parent %d %s [%d,%d] of record %d",
				s.ID, s.Name, s.StartNs, s.EndNs, s.Record, p.ID, p.Name, p.StartNs, p.EndNs, p.Record)
		}
	}
	if roots == 0 || roots == len(spans) {
		t.Errorf("%d root spans among %d spans", roots, len(spans))
	}
	for name, d := range selfTimes(spans) {
		if d < 0 {
			t.Errorf("negative self time %v for %s", d, name)
		}
	}
}

func TestCountMetricsRepeatPerSeed(t *testing.T) {
	spec := mustSpec(t)
	for i := range jobs {
		j := &jobs[i]
		t.Run(j.name, func(t *testing.T) {
			a, b := countsOf(mustRun(t, spec, j, 11, true)), countsOf(mustRun(t, spec, j, 11, true))
			if !reflect.DeepEqual(a, b) {
				t.Errorf("two runs of seed 11 disagree:\n%v\n%v", a, b)
			}
			if c := countsOf(mustRun(t, spec, j, 12, true)); reflect.DeepEqual(a, c) {
				t.Errorf("seeds 11 and 12 give identical counts: %v", a)
			}
		})
	}
}

func TestAOLRuntimesAgree(t *testing.T) {
	spec := mustSpec(t)
	engine := mustRun(t, spec, jobByName("aol_engine"), 5, true)
	fleet := mustRun(t, spec, jobByName("aol_fleet"), 5, true)
	if e, f := engine.Metrics["results"].Value, fleet.Metrics["results"].Value; e != f || e == 0 {
		t.Errorf("aol_engine found %v result pairs, aol_fleet %v", e, f)
	}
}

// fakeClock is a pacer clock that moves when told to, and by tick at every
// reading.
type fakeClock struct{ t, tick time.Duration }

func (c *fakeClock) pacer() pacer {
	return pacer{
		now: func() time.Duration {
			c.t += c.tick
			return c.t
		},
		wait: func(until time.Duration) { c.t = until },
	}
}

func TestPacerChargesAStallToEveryRecordDueDuringIt(t *testing.T) {
	const (
		n       = 100
		gap     = time.Millisecond
		service = 10 * time.Microsecond
		stallAt = 10
		stall   = 50 * time.Millisecond
	)
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(i+1) * gap
	}
	clock := &fakeClock{}
	var stallEnd time.Duration
	res := clock.pacer().run(due, func(i int) {
		clock.t += service
		if i == stallAt {
			clock.t += stall
			stallEnd = clock.t
		}
	})
	charged := 0
	for i, lat := range res.latNs {
		switch {
		case i < stallAt:
			if time.Duration(lat) != service {
				t.Errorf("record %d before the stall: latency %v, want %v", i, time.Duration(lat), service)
			}
		case i > stallAt && due[i] < stallEnd:
			charged++
			if min := stallEnd - due[i]; time.Duration(lat) < min {
				t.Errorf("record %d was due %v before the stall ended but is charged only %v", i, min, time.Duration(lat))
			}
		}
	}
	if charged != int(stall/gap) {
		t.Errorf("%d records were due during the stall, want %d", charged, int(stall/gap))
	}
	if res.backlogMax < charged-1 {
		t.Errorf("backlog max %d, want at least %d", res.backlogMax, charged-1)
	}
	if res.backlogEnd != 0 {
		t.Errorf("backlog end %d after the queue drained, want 0", res.backlogEnd)
	}

	// A service time above the arrival gap never catches up.
	clock = &fakeClock{}
	res = clock.pacer().run(due, func(int) { clock.t += 2 * gap })
	if res.backlogEnd == 0 {
		t.Errorf("backlog end 0 at twice the sustainable rate (max %d)", res.backlogMax)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
	q1, q2, q3 = quartiles([]float64{3, 1})
	if q1 != 0.5 || q2 != 2 || q3 != 3.5 {
		t.Errorf("quartiles of two = %v %v %v", q1, q2, q3)
	}
}

// writeSide writes three run files whose end-to-end metrics are the spec's
// names with value base·(1 ± 1 %), scaled by factor for the named metric.
func writeSide(t *testing.T, spec *benchSpec, dir, side, metric string, factor float64) []string {
	t.Helper()
	var paths []string
	for i, jitter := range []float64{0.99, 1, 1.01} {
		rf := runFile{}
		for _, wl := range spec.Workloads {
			r := &runResult{Workload: wl.Name, Correct: true, Attempted: 1, Metrics: map[string]metricValue{}}
			for k, m := range spec.EndToEnd {
				v := float64(100*(k+1)) * jitter
				if m.Name == metric {
					v *= factor
				}
				r.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
			}
			rf.Runs = append(rf.Runs, r)
		}
		p := filepath.Join(dir, fmt.Sprintf("%s%d.json", side, i))
		if err := writeJSON(p, rf); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	return paths
}

func TestCompareVerdicts(t *testing.T) {
	spec := mustSpec(t)
	dir := t.TempDir()
	a := writeSide(t, spec, dir, "a", "", 1)
	same := writeSide(t, spec, dir, "same", "", 1)
	slower := writeSide(t, spec, dir, "slower", "throughput_rps", 0.5) // no bound may exceed 0.25

	var out bytes.Buffer
	worse, err := compareFiles(spec, &out, append(append(a, "--"), same...))
	if err != nil || worse {
		t.Fatalf("identical sides: worse=%v err=%v\n%s", worse, err, out.String())
	}
	if n := strings.Count(out.String(), verdictNoWorse); n != len(spec.Workloads)*len(spec.EndToEnd) {
		t.Errorf("identical sides: %d no-worse verdicts, want %d\n%s", n, len(spec.Workloads)*len(spec.EndToEnd), out.String())
	}

	out.Reset()
	worse, err = compareFiles(spec, &out, append(append(a, "--"), slower...))
	if err != nil || !worse {
		t.Fatalf("doctored side: worse=%v err=%v\n%s", worse, err, out.String())
	}
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 || f[0] == "workload" {
			continue
		}
		if isWorse := f[len(f)-1] == verdictWorse; isWorse != (f[1] == "throughput_rps") {
			t.Errorf("unexpected verdict: %s", line)
		}
	}

	// A base whose own runs spread wider than the bound cannot resolve it.
	tp := metricSpec{Name: "throughput_rps", Better: "higher", Bound: 0.10}
	if v, _ := judge(tp, []float64{80, 100, 120, 140}, []float64{100, 101, 102}); v != verdictUnresolved {
		t.Errorf("noisy base: verdict %s, want %s", v, verdictUnresolved)
	}
	if _, err := compareFiles(spec, &out, a); err == nil {
		t.Error("missing -- separator accepted")
	}
}
