package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bundle"
	"repro/internal/filter"
	"repro/internal/local"
	"repro/internal/record"
	"repro/internal/similarity"
	"repro/internal/tokens"
	"repro/internal/window"
	"repro/internal/wire"
)

func sessionJoiner(t *testing.T) local.Joiner {
	t.Helper()
	return local.New(local.Bundled, local.Options{
		Params: filter.Params{Func: similarity.Jaccard, Threshold: 0.6},
		Window: window.Unbounded{},
		Bundle: bundle.Config{GroupThreshold: 0.8, MaxMembers: 16},
	})
}

func TestSessionEnvelopeRoundTrip(t *testing.T) {
	j := sessionJoiner(t)
	j.Load(&record.Record{ID: 1, Tokens: []tokens.Rank{1, 2, 3}})
	meta := SessionMeta{
		PlanHash: 0xABCDEF0123456789,
		Unacked: []wire.Result{
			{A: 1, B: 2, Sim: 0.75},
			{A: 9, B: 4, Sim: 1},
		},
	}
	var buf bytes.Buffer
	if err := WriteSessionHeader(&buf, meta); err != nil {
		t.Fatal(err)
	}
	if err := Write(&buf, Cursor{NextID: 2, NextTime: 5}, j); err != nil {
		t.Fatal(err)
	}

	got, body, err := ReadSessionHeader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// The unacked results travel as wire Result frames, which name a
	// pair's IDs in ascending order.
	want := SessionMeta{PlanHash: meta.PlanHash, Unacked: []wire.Result{{A: 1, B: 2, Sim: 0.75}, {A: 4, B: 9, Sim: 1}}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("meta mismatch:\ngot  %+v\nwant %+v", got, want)
	}
	j2 := sessionJoiner(t)
	cur, n, err := Read(body, j2)
	if err != nil {
		t.Fatal(err)
	}
	if cur.NextID != 2 || cur.NextTime != 5 || n != 1 {
		t.Fatalf("inner checkpoint: cur=%+v n=%d", cur, n)
	}
}

// TestSessionHeaderRefusesOtherFormats: a bare checkpoint body and an
// envelope of an earlier version are both errors, which a worker answers
// by starting the session fresh.
func TestSessionHeaderRefusesOtherFormats(t *testing.T) {
	var body bytes.Buffer
	if err := Write(&body, Cursor{NextID: 8}, sessionJoiner(t)); err != nil {
		t.Fatal(err)
	}
	older := append([]byte("SSJCKPT\x02"), 0, 0) // plan hash 0, no unacked results
	unnumbered := append([]byte("SSJCKPT\x03"), 0, wire.TypeEOF, 0)
	for name, data := range map[string][]byte{
		"bare body":           body.Bytes(),
		"older envelope":      append(older, body.Bytes()...),
		"unnumbered envelope": append(unnumbered, body.Bytes()...),
	} {
		if meta, _, err := ReadSessionHeader(bytes.NewReader(data)); err == nil {
			t.Errorf("%s read as an envelope: %+v", name, meta)
		}
	}
}

// TestSessionHeaderNumbersUnacked: the envelope keeps the number of the
// first unacknowledged result, and refuses results whose numbers leave a
// gap or stop short of the next result number it declares.
func TestSessionHeaderNumbersUnacked(t *testing.T) {
	meta := SessionMeta{PlanHash: 5, Acked: 40, Unacked: []wire.Result{{A: 1, B: 9, Sim: 1}, {A: 2, B: 9, Sim: 1}, {A: 3, B: 11, Sim: 1}}}
	var buf bytes.Buffer
	if err := WriteSessionHeader(&buf, meta); err != nil {
		t.Fatal(err)
	}
	if got, _, err := ReadSessionHeader(bytes.NewReader(buf.Bytes())); err != nil || !reflect.DeepEqual(got, meta) {
		t.Fatalf("read back %+v, %v; want %+v", got, err, meta)
	}
	if got, _, err := ReadSessionHeader(bytes.NewReader(appendEnvelope(5, 7))); err != nil || got.Acked != 7 || len(got.Unacked) != 0 {
		t.Fatalf("an envelope with nothing unacked reads back as %+v, %v", got, err)
	}
	for name, frames := range map[string][][2]uint64{
		"gap":         {{40, 1}, {42, 1}}, // [first, pairs] per frame
		"short":       {{40, 1}},
		"past next":   {{40, 3}},
		"before next": {{38, 1}, {39, 1}},
	} {
		if got, _, err := ReadSessionHeader(bytes.NewReader(appendEnvelope(5, 42, frames...))); err == nil {
			t.Errorf("%s: read as %+v", name, got)
		}
	}
}

// appendEnvelope returns an envelope whose next result number is next and
// whose Result frames are numbered and sized as frames says, each one
// probe's pairs.
func appendEnvelope(planHash, next uint64, frames ...[2]uint64) []byte {
	var buf bytes.Buffer
	buf.Write(binary.AppendUvarint(binary.AppendUvarint(bytes.Clone(magic2), planHash), next))
	w := wire.NewWriter(&buf)
	for i, fr := range frames {
		probe := record.ID(100 + i)
		rs := make([]wire.Result, fr[1])
		for j := range rs {
			rs[j] = wire.Result{A: record.ID(j), B: probe, Sim: 1}
		}
		w.SetResultNumber(fr[0])
		w.WriteResults(probe, rs) //nolint:errcheck
	}
	w.WriteEOF() //nolint:errcheck
	return buf.Bytes()
}

func TestV1ReaderRejectsV2File(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSessionHeader(&buf, SessionMeta{PlanHash: 1}); err != nil {
		t.Fatal(err)
	}
	if err := Write(&buf, Cursor{}, sessionJoiner(t)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Read(&buf, sessionJoiner(t)); err == nil {
		t.Fatal("v1 Read accepted a v2 file")
	}
}

func TestSessionHeaderEmptyUnacked(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSessionHeader(&buf, SessionMeta{PlanHash: 3}); err != nil {
		t.Fatal(err)
	}
	meta, _, err := ReadSessionHeader(&buf)
	if err != nil {
		t.Fatalf("empty-unacked header: %v", err)
	}
	if meta.PlanHash != 3 || len(meta.Unacked) != 0 {
		t.Fatalf("meta = %+v", meta)
	}
}

func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, ManifestPath)
	m := &Manifest{
		Schema:    ManifestSchema,
		SessionID: 0xBEEF,
		Hello: wire.Hello{
			Version: wire.Version, Func: 1, Threshold: 0.7, Strategy: 0,
			Bounds: []int{10, 20, 30}, FT: true,
			SessionID: 0xBEEF,
		},
		Workers: []string{"a:1", "b:2", "c:3"},
	}
	if err := SaveManifest(path, m); err != nil {
		t.Fatal(err)
	}
	// Overwrite in place: atomic save must replace, not append.
	m.Workers = []string{"a:1", "d:4"}
	if err := SaveManifest(path, m); err != nil {
		t.Fatal(err)
	}
	got, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("manifest mismatch:\ngot  %+v\nwant %+v", got, m)
	}
	// No temp debris.
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Fatalf("session dir has %d entries, want just the manifest", len(entries))
	}
}

// TestManifestLoadsEarlierFields: the fields manifests of earlier
// releases also carried — the plan hash beside the Hello, the current
// bounds, the log positions and per-task send cursors — are ignored on
// load.
func TestManifestLoadsEarlierFields(t *testing.T) {
	path := filepath.Join(t.TempDir(), ManifestPath)
	old := `{"schema": 4, "session_id": 48879, "plan_hash": 12345,
		"hello": {"Version": 6, "Threshold": 0.7, "Bounds": [10, 20]},
		"workers": ["a:1", "b:2"], "bounds": [10, 10],
		"ingest_next": 500, "results_next": 77,
		"cursors": [{"task": 0, "sent_pos": 100}]}`
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.SessionID != 48879 || len(m.Workers) != 2 || len(m.Hello.Bounds) != 2 {
		t.Fatalf("earlier manifest loads as %+v", m)
	}
	// The same manifest under schema 3 is refused, naming its schema.
	if err := os.WriteFile(path, []byte(strings.Replace(old, `"schema": 4`, `"schema": 3`, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadManifest(path); err == nil || !strings.Contains(err.Error(), "schema 3") {
		t.Fatalf("a schema-3 manifest loads with error %v", err)
	}
}

func TestManifestValidation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, ManifestPath)
	if _, err := LoadManifest(path); err == nil {
		t.Fatal("missing manifest loaded")
	}
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadManifest(path); err == nil {
		t.Fatal("corrupt manifest loaded")
	}
	if err := SaveManifest(path, &Manifest{Schema: ManifestSchema + 1, SessionID: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadManifest(path); err == nil {
		t.Fatal("wrong-schema manifest loaded")
	}
	if err := SaveManifest(path, &Manifest{Schema: ManifestSchema}); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadManifest(path); err == nil {
		t.Fatal("zero-session manifest loaded")
	}
}

func TestErrPlanMismatchIsSentinel(t *testing.T) {
	wrapped := errors.New("worker: " + ErrPlanMismatch.Error())
	if errors.Is(wrapped, ErrPlanMismatch) {
		t.Fatal("string copy should not match the sentinel")
	}
	if !errors.Is(ErrPlanMismatch, ErrPlanMismatch) {
		t.Fatal("sentinel identity broken")
	}
}
