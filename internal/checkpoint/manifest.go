package checkpoint

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/wire"
)

// ManifestSchema is the current manifest format version. It also versions
// what sits beside the manifest: the results log holds one entry per
// received Result frame, its task, the frame type and its wire version 9
// payload (first result number, probe ID, count, partner distances), or,
// when the Hello is CountOnly, one per frame that added results, its task,
// the Count frame type and a Count payload of the results it added; and,
// after the results each covers, the task's recovery marks, its task, the
// Credit frame type, the ID after the last probed record and the results
// numbered below it (schema 5). Schema 4 logs held no frame type and no
// marks beside workers that checkpointed, schema 3 stored a hand-mixed
// plan hash beside the Hello, schema 2 logs held one unnumbered pair per
// entry and schema 1 logs (A, B) pair frames; none of them resumes any
// more.
const ManifestSchema = 5

// Manifest is the coordinator's session checkpoint: what a fresh
// coordinator process needs, beside the ingest and results logs, to re-run
// the session — the schema, the session ID, the launch configuration as
// the wire Hello of task 0, and the worker fleet. It is written once, when
// the run starts; a resume must plan a Hello of the same PlanHash.
// Manifests of earlier releases carry more fields; LoadManifest ignores
// them.
type Manifest struct {
	Schema    int    `json:"schema"`
	SessionID uint64 `json:"session_id"`
	// Hello carries the session configuration (Task is meaningless here
	// and left zero).
	Hello   wire.Hello `json:"hello"`
	Workers []string   `json:"workers"`
}

// ManifestPath is the manifest file name inside a session state
// directory.
const ManifestPath = "manifest.json"

// SaveManifest writes m atomically (temp file + rename + directory-entry
// durability via fsync) so a crash mid-write never leaves a torn
// manifest.
func SaveManifest(path string, m *Manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("checkpoint: encoding manifest: %w", err)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".manifest-*.tmp")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: writing manifest: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: syncing manifest: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("checkpoint: installing manifest: %w", err)
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// LoadManifest reads and validates a manifest written by SaveManifest.
func LoadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("checkpoint: decoding manifest %s: %w", path, err)
	}
	if m.Schema != ManifestSchema {
		return nil, fmt.Errorf("checkpoint: manifest schema %d, want %d: the state directory was written by an incompatible release and cannot be resumed", m.Schema, ManifestSchema)
	}
	if m.SessionID == 0 {
		return nil, fmt.Errorf("checkpoint: manifest %s has no session id", path)
	}
	return &m, nil
}
