package tlc

import (
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"testing"

	"tlc/internal/faultinject"
)

// listXML is a small document the durability tests mutate; its shape is
// simple enough to hand-check and rich enough to exercise insert, delete
// and replace targets.
const listXML = `<list><person><name>ada</name></person><person><name>bob</name></person></list>`

// openListDB builds the deterministic base state recovery starts from: a
// fresh store holding list.xml. Every recovered database must be seeded
// through this same path, exactly as a restarted tlcserve re-runs its
// -load flags before replaying its WAL.
func openListDB(t *testing.T) *Database {
	t.Helper()
	db := Open(WithShards(2))
	if err := db.LoadXMLString("list.xml", listXML); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func attach(t *testing.T, db *Database, dir string, opts ...func(*WALOptions)) WALReplayStats {
	t.Helper()
	o := WALOptions{Dir: dir}
	for _, f := range opts {
		f(&o)
	}
	stats, err := db.AttachWAL(o)
	if err != nil {
		t.Fatalf("AttachWAL: %v", err)
	}
	return stats
}

// applyInserts appends n <person> entries with distinct names.
func applyInserts(t *testing.T, db *Database, from, n int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		_, err := db.Update(UpdateRequest{
			Doc:      "list.xml",
			Op:       UpdateInsert,
			Target:   "/list",
			Fragment: fmt.Sprintf("<person><name>gen-%d</name></person>", i),
		})
		if err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
	}
}

// listState serializes every person in document order — the
// byte-identity witness the recovery assertions compare. (The root
// element itself is not addressable by pattern matching, so the
// witness is its full child sequence, which every update here touches.)
func listState(t *testing.T, db *Database) string {
	t.Helper()
	res, err := db.Query(`FOR $p IN document("list.xml")//person RETURN $p`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() == 0 {
		t.Fatal("listState witness query matched nothing")
	}
	return res.XML()
}

func TestWALRecoveryRoundtrip(t *testing.T) {
	walDir := t.TempDir()
	db1 := openListDB(t)
	attach(t, db1, walDir)
	applyInserts(t, db1, 0, 5)
	// Mix in a replace and a delete so replay covers every operation kind.
	if _, err := db1.Update(UpdateRequest{Doc: "list.xml", Op: UpdateReplace, Target: "/list/person[1]",
		Fragment: "<person><name>ada-v2</name></person>"}); err != nil {
		t.Fatal(err)
	}
	if _, err := db1.Update(UpdateRequest{Doc: "list.xml", Op: UpdateDelete, Target: "/list/person[2]"}); err != nil {
		t.Fatal(err)
	}
	want := listState(t, db1)
	wantGen := db1.UpdateGeneration()
	if err := db1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Recover twice from the same log: both must match the uncrashed
	// original byte-for-byte (replay determinism).
	var states [2]string
	for i := range states {
		db := openListDB(t)
		stats, err := db.AttachWAL(WALOptions{Dir: walDir})
		if err != nil {
			t.Fatalf("recovery %d: %v", i, err)
		}
		if stats.Applied != 7 || stats.Skipped != 0 {
			t.Fatalf("recovery %d: applied %d skipped %d, want 7/0", i, stats.Applied, stats.Skipped)
		}
		if g := db.UpdateGeneration(); g != wantGen {
			t.Fatalf("recovery %d: generation %d, want %d", i, g, wantGen)
		}
		states[i] = listState(t, db)
		db.Close()
	}
	if states[0] != want {
		t.Fatalf("recovered state differs from uncrashed original\nwant %s\ngot  %s", want, states[0])
	}
	if states[0] != states[1] {
		t.Fatalf("two replays of the same log diverged\none %s\ntwo  %s", states[0], states[1])
	}
}

// TestWALRecoveryParity runs the replay-determinism check at XMark scale
// through the shard-parity machinery: an XML-loaded store plus WAL replay
// must answer the whole workload identically to the uncrashed original,
// on every engine.
func TestWALRecoveryParity(t *testing.T) {
	walDir := t.TempDir()
	db1 := Open(WithShards(2))
	if err := db1.LoadXMark("auction.xml", parityFactor); err != nil {
		t.Fatal(err)
	}
	attach(t, db1, walDir)
	for i := 0; i < 4; i++ {
		if _, err := db1.Update(UpdateRequest{Doc: "auction.xml", Op: UpdateInsert, Target: "/site",
			Fragment: fmt.Sprintf("<recovered-marker-%d/>", i)}); err != nil {
			t.Fatal(err)
		}
	}

	db2 := Open(WithShards(2))
	t.Cleanup(func() { db2.Close() })
	if err := db2.LoadXMark("auction.xml", parityFactor); err != nil {
		t.Fatal(err)
	}
	if stats := attach(t, db2, walDir); stats.Applied != 4 {
		t.Fatalf("replayed %d records, want 4", stats.Applied)
	}
	for _, q := range Workload()[:6] {
		for _, e := range []Engine{TLC, GTP} {
			want, err := db1.Query(q.Text, WithEngine(e))
			if err != nil {
				t.Fatal(err)
			}
			got, err := db2.Query(q.Text, WithEngine(e))
			if err != nil {
				t.Fatal(err)
			}
			if want.XML() != got.XML() {
				t.Fatalf("%s/%s: recovered store diverges from original", q.ID, e)
			}
		}
	}
	db1.Close()
}

func TestWALSnapshotCheckpoint(t *testing.T) {
	walDir, snapDir := t.TempDir(), t.TempDir()
	db1 := openListDB(t)
	attach(t, db1, walDir)
	applyInserts(t, db1, 0, 4)
	if _, err := db1.Snapshot(snapDir); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	// The checkpoint truncated everything it covers; post-checkpoint
	// updates land in the fresh segment.
	applyInserts(t, db1, 4, 2)
	want := listState(t, db1)
	db1.Close()

	// Cold start from the checkpoint: only the 2 post-snapshot records
	// replay.
	db2, err := OpenSnapshot(snapDir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db2.Close() })
	stats, err := db2.AttachWAL(WALOptions{Dir: walDir})
	if err != nil {
		t.Fatalf("AttachWAL after checkpoint: %v", err)
	}
	if stats.Applied != 2 {
		t.Fatalf("applied %d records, want 2", stats.Applied)
	}
	if got := listState(t, db2); got != want {
		t.Fatalf("checkpoint+replay differs from original\nwant %s\ngot  %s", want, got)
	}
	if g := db2.UpdateGeneration(); g != 6 {
		t.Fatalf("generation after checkpoint recovery = %d, want 6", g)
	}
}

func TestSnapshotThenRotateIdempotent(t *testing.T) {
	walDir := t.TempDir()
	db := openListDB(t)
	attach(t, db, walDir)
	applyInserts(t, db, 0, 3)
	snapA, snapB := t.TempDir(), t.TempDir()
	if _, err := db.Snapshot(snapA); err != nil {
		t.Fatal(err)
	}
	ws1, _, _ := db.WALStats()
	// A back-to-back checkpoint with no intervening updates must not
	// rotate again or create segments without bound.
	if _, err := db.Snapshot(snapB); err != nil {
		t.Fatal(err)
	}
	ws2, _, _ := db.WALStats()
	if ws2.Segments > ws1.Segments || ws2.Rotations != ws1.Rotations {
		t.Fatalf("idle checkpoint grew the log: %+v -> %+v", ws1, ws2)
	}
	// The log still accepts appends at the right sequence.
	applyInserts(t, db, 3, 1)
	if ws, _, _ := db.WALStats(); ws.LastSeq != 4 {
		t.Fatalf("LastSeq after post-checkpoint update = %d, want 4", ws.LastSeq)
	}
}

// TestLoadSnapshotAcrossWALGap covers the staleness interplay: a snapshot
// written at a higher update generation is bulk-loaded into a store whose
// WAL is behind, the generations jump, and both live appends and recovery
// must bridge the gap.
func TestLoadSnapshotAcrossWALGap(t *testing.T) {
	// dbA: an unrelated store that commits 6 updates and snapshots them.
	dbA := Open(WithShards(2))
	t.Cleanup(func() { dbA.Close() })
	if err := dbA.LoadXMLString("other.xml", `<other><e>x</e></other>`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := dbA.Update(UpdateRequest{Doc: "other.xml", Op: UpdateInsert, Target: "/other",
			Fragment: fmt.Sprintf("<e>%d</e>", i)}); err != nil {
			t.Fatal(err)
		}
	}
	snapDir := t.TempDir()
	if _, err := dbA.Snapshot(snapDir); err != nil {
		t.Fatal(err)
	}

	// db1: 3 WAL'd updates (seq 1..3), then the generation-10... actually
	// generation-6 snapshot loads on top, jumping updateGen from 3 to 6.
	walDir := t.TempDir()
	db1 := openListDB(t)
	attach(t, db1, walDir)
	applyInserts(t, db1, 0, 3)
	if err := db1.LoadSnapshot(snapDir); err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	if g := db1.UpdateGeneration(); g != 6 {
		t.Fatalf("generation after load = %d, want 6", g)
	}
	// Post-load updates must append at seq 7,8 — past the gap.
	applyInserts(t, db1, 3, 2)
	ws, _, _ := db1.WALStats()
	if ws.LastSeq != 8 {
		t.Fatalf("LastSeq = %d, want 8", ws.LastSeq)
	}
	want := listState(t, db1)
	db1.Close()

	// Recovery re-runs the same boot sequence: base load, snapshot load,
	// then replay. Records 1..3 re-apply, the snapshot jump is re-aligned,
	// and 7,8 land at exactly their logged sequence numbers.
	db2 := openListDB(t)
	if err := db2.LoadSnapshot(t.TempDir()); err == nil {
		t.Fatal("LoadSnapshot of an empty dir succeeded")
	}
	stats, err := db2.AttachWAL(WALOptions{Dir: walDir})
	if err != nil {
		t.Fatalf("AttachWAL across gap: %v", err)
	}
	if stats.Applied != 5 {
		t.Fatalf("applied %d records, want 5", stats.Applied)
	}
	if g := db2.UpdateGeneration(); g != 8 {
		t.Fatalf("generation after gap replay = %d, want 8", g)
	}
	if got := listState(t, db2); got != want {
		t.Fatalf("gap replay differs\nwant %s\ngot  %s", want, got)
	}
}

func walFiles(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.tlcw"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no wal segments in %s (%v)", dir, err)
	}
	return names
}

func TestWALTornTailRepairedOnAttach(t *testing.T) {
	walDir := t.TempDir()
	db1 := openListDB(t)
	attach(t, db1, walDir)
	applyInserts(t, db1, 0, 4)
	want3 := func() string { // state after only 3 updates
		db := openListDB(t)
		defer db.Close()
		applyInserts(t, db, 0, 3)
		return listState(t, db)
	}()
	db1.Close()

	// Tear the last record: chop a few bytes off the active segment.
	names := walFiles(t, walDir)
	last := names[len(names)-1]
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	db2 := openListDB(t)
	stats, err := db2.AttachWAL(WALOptions{Dir: walDir})
	if err != nil {
		t.Fatalf("AttachWAL with torn tail: %v", err)
	}
	if stats.TornRepairs == 0 {
		t.Fatal("torn tail not counted")
	}
	if stats.Applied != 3 {
		t.Fatalf("applied %d records after repair, want 3", stats.Applied)
	}
	if got := listState(t, db2); got != want3 {
		t.Fatalf("post-repair state wrong\nwant %s\ngot  %s", want3, got)
	}
	// The repaired log accepts the next update at the truncated sequence.
	applyInserts(t, db2, 3, 1)
	if ws, _, _ := db2.WALStats(); ws.LastSeq != 4 {
		t.Fatalf("LastSeq after repair+update = %d, want 4", ws.LastSeq)
	}
}

func TestWALMidLogCorruptionTyped(t *testing.T) {
	walDir := t.TempDir()
	db1 := openListDB(t)
	attach(t, db1, walDir)
	applyInserts(t, db1, 0, 4)
	db1.Close()

	// Flip a byte well inside the segment (first record's payload area):
	// not the tail, so the typed mid-log corruption path must fire.
	names := walFiles(t, walDir)
	data, err := os.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}
	data[32+20+4] ^= 0x55
	if err := os.WriteFile(names[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	db2 := openListDB(t)
	before := versionsOf(db2)
	_, err = db2.AttachWAL(WALOptions{Dir: walDir})
	if !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("AttachWAL on corrupt log = %v, want ErrWALCorrupt", err)
	}
	requireUntouched(t, db2, before)
}

// versionsOf records what a failed AttachWAL must leave alone: every
// document's version and the update generation (under the key "").
func versionsOf(db *Database) map[string]uint64 {
	out := map[string]uint64{"": db.UpdateGeneration()}
	for _, name := range db.Documents() {
		out[name], _ = db.DocumentVersion(name)
	}
	return out
}

func requireUntouched(t *testing.T, db *Database, before map[string]uint64) {
	t.Helper()
	if after := versionsOf(db); !maps.Equal(after, before) {
		t.Fatalf("failed AttachWAL installed something: versions and generation %v, before it %v", after, before)
	}
	if _, _, ok := db.WALStats(); ok {
		t.Fatal("failed AttachWAL left a log attached")
	}
}

func TestWALReplayFailureTyped(t *testing.T) {
	walDir := t.TempDir()
	db1 := openListDB(t)
	if err := db1.LoadXMLString("other.xml", `<other><e>x</e></other>`); err != nil {
		t.Fatal(err)
	}
	attach(t, db1, walDir)
	applyInserts(t, db1, 0, 2)
	if _, err := db1.Update(UpdateRequest{Doc: "other.xml", Op: UpdateInsert, Target: "/other", Fragment: "<e>y</e>"}); err != nil {
		t.Fatal(err)
	}
	applyInserts(t, db1, 2, 1)
	db1.Close()

	// Replay against a store missing one base document: the third record is
	// intact but cannot re-apply — ErrWALReplay, not ErrWALCorrupt — and the
	// two records replayed before it are not installed either.
	db2 := openListDB(t)
	before := versionsOf(db2)
	stats, err := db2.AttachWAL(WALOptions{Dir: walDir})
	if !errors.Is(err, ErrWALReplay) {
		t.Fatalf("AttachWAL without base document = %v, want ErrWALReplay", err)
	}
	if !errors.Is(err, ErrUnknownDocument) {
		t.Fatalf("cause not preserved: %v", err)
	}
	if stats.Applied != 2 {
		t.Fatalf("replay stopped after %d records, want 2", stats.Applied)
	}
	requireUntouched(t, db2, before)
}

// TestReplayPublishIsAllOrNothing: a replay that cannot publish one of its
// documents publishes none of them. The log holds records for two
// documents; while the replay is stalled after the second document's first
// record, a live update commits to that document, so the version the replay
// started it from is stale when the replay publishes.
func TestReplayPublishIsAllOrNothing(t *testing.T) {
	walDir := t.TempDir()
	open := func() *Database {
		db := openListDB(t) // list.xml gets the lower DocID
		if err := db.LoadXMLString("other.xml", `<other><e>x</e></other>`); err != nil {
			t.Fatal(err)
		}
		return db
	}
	insertOther := func(db *Database, v string) error {
		_, err := db.Update(UpdateRequest{Doc: "other.xml", Op: UpdateInsert, Target: "/other", Fragment: "<e>" + v + "</e>"})
		return err
	}
	db1 := open()
	attach(t, db1, walDir)
	applyInserts(t, db1, 0, 1)
	if err := insertOther(db1, "replayed"); err != nil {
		t.Fatal(err)
	}
	applyInserts(t, db1, 1, 1)
	db1.Close()

	db2 := open()
	var live error
	_, err := db2.AttachWAL(WALOptions{Dir: walDir, OnProgress: func(applied, _ int) {
		if applied == 2 {
			live = insertOther(db2, "live")
		}
	}})
	if live != nil {
		t.Fatalf("live update during the replay: %v", live)
	}
	if !errors.Is(err, ErrWALReplay) || !errors.Is(err, ErrUpdateConflict) {
		t.Fatalf("AttachWAL whose base went stale = %v, want ErrWALReplay and ErrUpdateConflict", err)
	}
	// Only the live update is visible: list.xml as it was opened, other.xml
	// one version on, and the generation that one commit made.
	requireUntouched(t, db2, map[string]uint64{"": 1, "list.xml": 1, "other.xml": 2})
	res, err := db2.Query(`FOR $e IN document("other.xml")//e RETURN $e`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.XML(); got != "<e>x</e>\n<e>live</e>" {
		t.Fatalf("other.xml reads %s, want the live update only", got)
	}
}

func TestWALAppendFailureVetoesCommit(t *testing.T) {
	walDir := t.TempDir()
	db := openListDB(t)
	attach(t, db, walDir)
	applyInserts(t, db, 0, 1)
	before := listState(t, db)
	genBefore := db.UpdateGeneration()

	if err := faultinject.Enable("wal.append=error"); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Disable()
	_, err := db.Update(UpdateRequest{Doc: "list.xml", Op: UpdateInsert, Target: "/list",
		Fragment: "<person><name>lost</name></person>"})
	if !errors.Is(err, ErrDurability) {
		t.Fatalf("update with failing WAL = %v, want ErrDurability", err)
	}
	// The veto must leave no trace: same state, same generation, and the
	// log still accepts the next sequence number.
	if got := listState(t, db); got != before {
		t.Fatal("vetoed commit mutated the store")
	}
	if g := db.UpdateGeneration(); g != genBefore {
		t.Fatalf("vetoed commit advanced the generation: %d -> %d", genBefore, g)
	}
	faultinject.Disable()
	applyInserts(t, db, 1, 1)
	if ws, _, _ := db.WALStats(); ws.LastSeq != 2 {
		t.Fatalf("LastSeq after veto+retry = %d, want 2", ws.LastSeq)
	}
}

func TestUpdateOnClosedWALFails(t *testing.T) {
	walDir := t.TempDir()
	db := openListDB(t)
	attach(t, db, walDir)
	applyInserts(t, db, 0, 1)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	_, err := db.Update(UpdateRequest{Doc: "list.xml", Op: UpdateInsert, Target: "/list",
		Fragment: "<person><name>late</name></person>"})
	if !errors.Is(err, ErrDurability) {
		t.Fatalf("update after Close = %v, want ErrDurability (never an unlogged commit)", err)
	}
}
