package main

import (
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"tlc"
)

// TestSnapshotFlagRoundTrip boots tlcserve with -snapshot on an empty
// directory, which loads XMark and writes a snapshot there, then boots it
// again on the same directory, which opens the snapshot instead of loading:
// a Figure 15 query must answer the same from both.
func TestSnapshotFlagRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "snap")
	i := slices.IndexFunc(tlc.Workload(), func(q tlc.WorkloadQuery) bool { return q.ID == "x3" })
	query := tlc.Workload()[i].Text

	s1 := startServer(t, "", "-xmark", "0.02", "-snapshot", dir)
	if logs := s1.stderr.String(); !strings.Contains(logs, "wrote snapshot") {
		t.Fatalf("first boot wrote no snapshot:\n%s", logs)
	}
	s1.waitReady(t)
	want := s1.query(t, query)
	s1.kill(t)
	if len(want) == 0 {
		t.Fatal("x3 returned nothing from the loaded document")
	}

	s2 := startServer(t, "", "-xmark", "0.02", "-snapshot", dir)
	if logs := s2.stderr.String(); !strings.Contains(logs, "opened snapshot") {
		t.Fatalf("second boot did not open the snapshot:\n%s", logs)
	}
	s2.waitReady(t)
	if got := s2.query(t, query); !slices.Equal(got, want) {
		t.Fatalf("x3 from the snapshot differs from x3 from the load (%d results against %d)", len(got), len(want))
	}
	s2.kill(t)
}
