package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestJournalRingAndDropCounting(t *testing.T) {
	j := NewJournal(4)
	for i := 0; i < 10; i++ {
		j.Append("tick", "comp", strings.Repeat("x", i+1))
	}
	if got := j.Appended(); got != 10 {
		t.Fatalf("Appended() = %d, want 10", got)
	}
	snap := j.Snapshot()
	if snap.Appended != 10 || snap.Dropped != 6 {
		t.Fatalf("snapshot appended=%d dropped=%d, want 10/6", snap.Appended, snap.Dropped)
	}
	if len(snap.Events) != 4 {
		t.Fatalf("ring kept %d events, want 4", len(snap.Events))
	}
	// Oldest-first, with monotonically increasing sequence numbers for the
	// survivors (events 7..10).
	for i, ev := range snap.Events {
		if want := uint64(7 + i); ev.Seq != want {
			t.Fatalf("event %d seq = %d, want %d", i, ev.Seq, want)
		}
		if len(ev.Msg) != 7+i {
			t.Fatalf("event %d is not the expected survivor (msg %q)", i, ev.Msg)
		}
	}
}

func TestJournalRecentTail(t *testing.T) {
	j := NewJournal(8)
	for i := 0; i < 5; i++ {
		j.Append("e", "c", "m")
	}
	if got := len(j.Recent(3)); got != 3 {
		t.Fatalf("Recent(3) returned %d events", got)
	}
	if got := j.Recent(3); got[0].Seq >= got[2].Seq {
		t.Fatalf("Recent must be oldest-first, got seqs %d..%d", got[0].Seq, got[2].Seq)
	}
}

func TestJournalNilSafe(t *testing.T) {
	var j *Journal
	j.Append("e", "c", "m") // must not panic
	if j.Appended() != 0 || len(j.Recent(5)) != 0 {
		t.Fatal("nil journal must be empty")
	}
	snap := j.Snapshot()
	if snap.Appended != 0 || len(snap.Events) != 0 {
		t.Fatal("nil journal snapshot must be empty")
	}
}

// TestDebugEventsEndpoint reads the journal the way an operator does:
// /debug/events serves the snapshot, and ?n= keeps the newest n events.
func TestDebugEventsEndpoint(t *testing.T) {
	j := NewJournal(8)
	j.Append("session_start", "worker/0", "a")
	j.Append("checkpoint", "worker/0", "b")
	j.Append("session_end", "worker/0", "c")
	mux := http.NewServeMux()
	AttachDebug(mux, DebugOptions{Registry: NewRegistry(), Journal: j})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	get := func(path string) JournalSnapshot {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var snap JournalSnapshot
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			t.Fatal(err)
		}
		return snap
	}
	all := get("/debug/events")
	if all.Appended != 3 || len(all.Events) != 3 || all.Events[0].Type != "session_start" {
		t.Fatalf("/debug/events = %+v", all)
	}
	tail := get("/debug/events?n=1")
	if len(tail.Events) != 1 || tail.Events[0].Type != "session_end" {
		t.Fatalf("/debug/events?n=1 = %+v", tail)
	}
}
