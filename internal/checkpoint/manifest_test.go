package checkpoint

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bundle"
	"repro/internal/filter"
	"repro/internal/local"
	"repro/internal/similarity"
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

// TestV1ReaderRejectsV2File: a file that opens with the magic of the
// retired worker-checkpoint envelope ("SSJCKPT\x04", before protocol
// version 12) is refused by Read, whatever body follows it.
func TestV1ReaderRejectsV2File(t *testing.T) {
	buf := bytes.NewBufferString("SSJCKPT\x04")
	if err := Write(buf, Cursor{}, sessionJoiner(t)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Read(buf, sessionJoiner(t)); err == nil {
		t.Fatal("v1 Read accepted a v2 file")
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
	old := `{"schema": 5, "session_id": 48879, "plan_hash": 12345,
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
	// The same manifest under schema 4 is refused, naming its schema.
	if err := os.WriteFile(path, []byte(strings.Replace(old, `"schema": 5`, `"schema": 4`, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadManifest(path); err == nil || !strings.Contains(err.Error(), "schema 4") {
		t.Fatalf("a schema-4 manifest loads with error %v", err)
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
