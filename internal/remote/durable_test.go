package remote

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/faultwire"
	"repro/internal/record"
	"repro/internal/wal"
	"repro/internal/window"
	"repro/internal/wire"
	"repro/internal/workload"
)

// TestRunFTDurableRoundTrip is the differential gate for durable session
// state: a clean durable run must (a) match the fault-free baseline, (b)
// leave an ingest log that replays the input stream record for record,
// (c) leave a results log holding exactly the distinct result set, and
// (d) leave a manifest whose hello round-trips back to the launch session.
func TestRunFTDurableRoundTrip(t *testing.T) {
	recs := workload.NewGenerator(workload.UniformSmall(59)).Generate(600)
	const tau = 0.7
	k := 3
	sess := testSession(tau, "length", boundsFor(recs, tau, k))
	want := chaosBaseline(t, k, sess, recs)

	workers := make([]*ftWorker, k)
	addrs := make([]string, k)
	for i := range workers {
		workers[i] = startFTWorker(t)
		addrs[i] = workers[i].addr
	}
	state := t.TempDir()
	ft := fastFT(0xD0B1E)
	ft.Durable = &Durable{StateDir: state, Workers: addrs}
	sum, err := RunFT(context.Background(), tcpDialer(func(task int) string { return addrs[task] }),
		k, sess, recs, Opts{CollectPairs: true}, ft)
	if err != nil {
		t.Fatal(err)
	}
	requireParity(t, sum.Pairs, want, "durable")

	// Ingest log vs live input: same length, same records, same order.
	logRecs, err := ReadIngestLog(state)
	if err != nil {
		t.Fatal(err)
	}
	if len(logRecs) != len(recs) {
		t.Fatalf("ingest log holds %d records, input had %d", len(logRecs), len(recs))
	}
	for i, r := range logRecs {
		in := recs[i]
		if r.ID != in.ID || r.Time != in.Time || len(r.Tokens) != len(in.Tokens) {
			t.Fatalf("ingest log record %d = %v, input %v", i, r, in)
		}
		for j, tok := range r.Tokens {
			if tok != in.Tokens[j] {
				t.Fatalf("ingest log record %d token %d = %v, input %v", i, j, tok, in.Tokens[j])
			}
		}
	}

	// Results log vs live result set: exactly the distinct pairs, no dups.
	logRes, err := ReadResultsLog(state)
	if err != nil {
		t.Fatal(err)
	}
	if len(logRes) != len(want) {
		t.Errorf("results log holds %d entries, want %d distinct results", len(logRes), len(want))
	}
	seen := make(map[record.Pair]bool, len(logRes))
	for _, res := range logRes {
		p := record.Pair{First: res.A, Second: res.B}
		if seen[p] {
			t.Errorf("results log holds duplicate pair %v", p)
		}
		seen[p] = true
		if !want[p] {
			t.Errorf("results log holds pair %v absent from the baseline", p)
		}
	}

	// Manifest: identity, plan hash, and a hello that round-trips.
	m, err := checkpoint.LoadManifest(filepath.Join(state, checkpoint.ManifestPath))
	if err != nil {
		t.Fatal(err)
	}
	if m.SessionID != ft.SessionID {
		t.Errorf("manifest session id %016x, want %016x", m.SessionID, ft.SessionID)
	}
	if m.Hello.PlanHash() != sess.PlanHash(k) {
		t.Errorf("manifest plan hash %016x, want %016x", m.Hello.PlanHash(), sess.PlanHash(k))
	}
	if len(m.Workers) != k {
		t.Fatalf("manifest workers %v, want %d addresses", m.Workers, k)
	}
	for i, a := range m.Workers {
		if a != addrs[i] {
			t.Errorf("manifest worker %d = %q, want %q", i, a, addrs[i])
		}
	}
	sess2, err := SessionFromHello(m.Hello)
	if err != nil {
		t.Fatal(err)
	}
	if sess2.Strategy != sess.Strategy || sess2.Params.Threshold != sess.Params.Threshold {
		t.Errorf("manifest hello decodes to %+v, want %+v", sess2, sess)
	}
	if sess2.PlanHash(k) != m.Hello.PlanHash() {
		t.Errorf("round-tripped session plan hash %016x, manifest %016x", sess2.PlanHash(k), m.Hello.PlanHash())
	}
}

// TestDurableStateLayout pins what a durable run leaves on disk and what
// reading it back does: each log is one file, the manifest is written when
// the run starts and not after its first append, and reading a state
// directory that does not exist is an error that creates nothing.
func TestDurableStateLayout(t *testing.T) {
	recs := workload.NewGenerator(workload.UniformSmall(61)).Generate(300)
	const k = 2
	sess := testSession(0.7, "length", boundsFor(recs, 0.7, k))
	addrs := make([]string, k)
	for i := range addrs {
		addrs[i] = startFTWorker(t).addr
	}
	state := t.TempDir()
	ft := fastFT(0x1A70)
	ft.Durable = &Durable{StateDir: state, Workers: addrs}
	if _, err := RunFT(context.Background(), tcpDialer(func(task int) string { return addrs[task] }),
		k, sess, recs, Opts{}, ft); err != nil {
		t.Fatal(err)
	}
	for _, sub := range []string{ingestLogDir, resultsLogDir} {
		entries, err := os.ReadDir(filepath.Join(state, sub))
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 || entries[0].Name() != wal.FileName {
			t.Errorf("%s/ holds %d entries, want just %s", sub, len(entries), wal.FileName)
		}
	}
	manifest, err := os.Stat(filepath.Join(state, checkpoint.ManifestPath))
	if err != nil {
		t.Fatal(err)
	}
	ingest, err := os.Stat(filepath.Join(state, ingestLogDir, wal.FileName))
	if err != nil {
		t.Fatal(err)
	}
	if manifest.ModTime().After(ingest.ModTime()) {
		t.Errorf("manifest written at %v, after the ingest log's last append at %v",
			manifest.ModTime(), ingest.ModTime())
	}

	missing := filepath.Join(t.TempDir(), "typo")
	if recs, err := ReadIngestLog(missing); err == nil {
		t.Errorf("ReadIngestLog of a missing state directory = %d records, want an error", len(recs))
	}
	if res, err := ReadResultsLog(missing); err == nil {
		t.Errorf("ReadResultsLog of a missing state directory = %d results, want an error", len(res))
	}
	if _, err := os.Stat(missing); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("reading a missing state directory created it: %v", err)
	}
}

// TestRunFTCoordinatorKillResume is the coordinator-crash acceptance gate:
// a durable run is killed mid-flight (context cancel standing in for
// kill -9 — the CI chaos job does the real thing), a fresh "process"
// reconstructs the session purely from the state directory (manifest +
// ingest log), and the resumed run over the same workers must produce
// exactly the fault-free result set of the persisted input. The resume
// leg additionally carries duplicated frames, so the workers' duplicate
// filter runs while they load the windows replayed from the logged marks.
func TestRunFTCoordinatorKillResume(t *testing.T) {
	setRecordWindow(t, 32)
	recs := workload.NewGenerator(workload.UniformSmall(71)).Generate(1500)
	const tau = 0.7
	k := 3
	sess := testSession(tau, "length", boundsFor(recs, tau, k))
	sess.Window = window.Count{N: 128}

	workers := make([]*ftWorker, k)
	addrs := make([]string, k)
	for i := range workers {
		workers[i] = startFTWorker(t)
		addrs[i] = workers[i].addr
	}
	state := t.TempDir()
	const sid = 0x51DFA11
	ft1 := fastFT(sid)
	ft1.Durable = &Durable{StateDir: state, Workers: addrs}

	// First incarnation: slowed by injected frame delays so the kill lands
	// mid-stream, then cancelled once the fleet has made real progress.
	dial1 := func(ctx context.Context, task int) (io.ReadWriteCloser, error) {
		var d net.Dialer
		c, err := d.DialContext(ctx, "tcp", addrs[task])
		if err != nil {
			return nil, err
		}
		return faultwire.Wrap(c, faultwire.Config{
			Seed:          0xA171 ^ uint64(task),
			DelayPerMille: 400,
			Delay:         time.Millisecond,
		}), nil
	}
	ctx1, kill := context.WithCancel(context.Background())
	defer kill()
	done := make(chan error, 1)
	go func() {
		_, err := RunFT(ctx1, dial1, k, sess, recs, Opts{CollectPairs: true}, ft1)
		done <- err
	}()
	progress := func() uint64 {
		var n uint64
		for _, w := range workers {
			n += w.mon.RecordsSeen.Load()
		}
		return n
	}
	deadline := time.Now().Add(10 * time.Second)
	for progress() < 300 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if progress() < 300 {
		t.Fatalf("fleet made no progress before the kill: %d records seen", progress())
	}
	kill()
	if err := <-done; err == nil {
		// The run outpaced the kill; the resume below still exercises the
		// full recovery path against a complete state directory.
		t.Log("first run finished before the kill landed")
	}
	// Second incarnation: everything comes from the state directory.
	m, err := checkpoint.LoadManifest(filepath.Join(state, checkpoint.ManifestPath))
	if err != nil {
		t.Fatal(err)
	}
	sess2, err := SessionFromHello(m.Hello)
	if err != nil {
		t.Fatal(err)
	}
	logRecs, err := ReadIngestLog(state)
	if err != nil {
		t.Fatal(err)
	}
	if len(logRecs) == 0 {
		t.Fatal("ingest log empty after kill")
	}
	want := chaosBaseline(t, k, sess2, logRecs)

	var attempts [3]atomic.Int64
	dial2 := func(ctx context.Context, task int) (io.ReadWriteCloser, error) {
		var d net.Dialer
		c, err := d.DialContext(ctx, "tcp", m.Workers[task])
		if err != nil {
			return nil, err
		}
		return faultwire.Wrap(c, faultwire.Config{
			Seed:        0x2E5 ^ uint64(task)<<16 ^ uint64(attempts[task].Add(1)),
			DupPerMille: 20,
		}), nil
	}
	ft2 := fastFT(m.SessionID)
	ft2.Durable = &Durable{StateDir: state, Resume: true, Workers: m.Workers}
	sum, err := RunFT(context.Background(), dial2, k, sess2, logRecs, Opts{CollectPairs: true}, ft2)
	if err != nil {
		t.Fatal(err)
	}
	requireParity(t, sum.Pairs, want, "kill-resume")

	if loaded(workers) == 0 {
		t.Error("no worker loaded a window replayed across the coordinator restart")
	}
}

// TestLogEntryDecodeAllocs: a log replay decodes each entry in place. A
// record entry costs its token slice and the Record, a result entry
// nothing — not a 64 KiB buffered reader per entry, which made replaying
// a 200 000-record ingest log allocate ~13 GB.
func TestLogEntryDecodeAllocs(t *testing.T) {
	checkNoLeaks(t)
	rec := &record.Record{ID: 7, Time: 9, Tokens: []uint32{2, 3, 5, 8, 13}}
	res := []wire.Result{{A: 4, B: 11, Sim: 0.75}, {A: 6, B: 11, Sim: 0.5}}
	var buf bytes.Buffer
	enc := wire.NewWriter(&buf)
	if err := enc.WriteRecord(false, rec); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	recEntry := bytes.Clone(buf.Bytes())
	buf.Reset()
	enc.SetResultNumber(30)
	if err := enc.WriteResults(11, res); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	_, payload, err := wire.Frame(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	resEntry := append([]byte{2, wire.TypeResult}, payload...) // task 2's frame

	got, err := decodeRecordFrame(recEntry)
	if err != nil || !reflect.DeepEqual(got, rec) {
		t.Fatalf("record entry decodes to %+v, %v; want %+v", got, err, rec)
	}
	dst := make([]wire.Result, 0, len(res))
	if task, first, got, err := decodeResultEntry(resEntry, dst); err != nil || task != 2 || first != 30 || !reflect.DeepEqual(got, res) {
		t.Fatalf("result entry decodes to task %d, %d, %+v, %v; want task 2, 30, %+v", task, first, got, err, res)
	}
	if n := testing.AllocsPerRun(100, func() { decodeRecordFrame(recEntry) }); n > 2 {
		t.Errorf("decoding a record entry: %v allocs, want at most 2", n)
	}
	if n := testing.AllocsPerRun(100, func() { decodeResultEntry(resEntry, dst) }); n != 0 {
		t.Errorf("decoding a result entry: %v allocs, want 0", n)
	}

	for name, entry := range map[string][]byte{
		"empty":           nil,
		"truncated":       recEntry[:len(recEntry)-1],
		"trailing byte":   append(bytes.Clone(recEntry), 0),
		"a result entry":  resEntry,
		"length overflow": {wire.TypeRecord, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
	} {
		if _, err := decodeRecordFrame(entry); err == nil {
			t.Errorf("a record entry that is %s decoded without error", name)
		}
	}
	if _, _, _, err := decodeResultEntry(recEntry, nil); err == nil {
		t.Error("a record frame decoded as a results log entry")
	}
}

// TestPlanHashProperties pins the plan hash as a launch-configuration
// fingerprint: stable across identical sessions, sensitive to every knob
// that changes which records a task owns or how they are compared.
func TestPlanHashProperties(t *testing.T) {
	checkNoLeaks(t)
	base := testSession(0.7, "length", []int{0, 10, 20})
	if base.PlanHash(3) != base.PlanHash(3) {
		t.Error("plan hash unstable across calls")
	}
	clone := testSession(0.7, "length", []int{0, 10, 20})
	if clone.PlanHash(3) != base.PlanHash(3) {
		t.Error("plan hash differs between identical sessions")
	}
	v := base
	v.Bounds = []int{0, 10, 20, 30}
	variants := map[string]uint64{
		"workers": v.PlanHash(4),
	}
	v = base
	v.Params.Threshold = 0.8
	variants["threshold"] = v.PlanHash(3)
	v = base
	v.Strategy = "broadcast"
	v.Bounds = nil
	variants["strategy"] = v.PlanHash(3)
	v = base
	v.Bounds = []int{0, 12, 20}
	variants["bounds"] = v.PlanHash(3)
	v = base
	v.Window = window.Count{N: 64}
	variants["window"] = v.PlanHash(3)
	v = base
	v.Bundle.GroupThreshold = 0.85
	variants["group threshold 0.85"] = v.PlanHash(3)
	v.Bundle.GroupThreshold = 0.9
	variants["group threshold 0.9"] = v.PlanHash(3)
	v = base
	v.Bundle.MaxMembers = 32
	variants["max members"] = v.PlanHash(3)
	seen := map[uint64]string{base.PlanHash(3): "base"}
	for name, h := range variants {
		if h == 0 {
			t.Errorf("variant %s does not encode", name)
		}
		if prev, dup := seen[h]; dup {
			t.Errorf("plan hash collision: %s == %s (%016x)", name, prev, h)
		}
		seen[h] = name
	}
}
