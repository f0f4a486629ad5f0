package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func mustOpen(t *testing.T, dir string, opts Options) *Log {
	t.Helper()
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func appendN(t *testing.T, l *Log, from, to uint64) {
	t.Helper()
	for seq := from; seq <= to; seq++ {
		if err := l.Append(seq, []byte(fmt.Sprintf("record-%d", seq))); err != nil {
			t.Fatalf("Append(%d): %v", seq, err)
		}
	}
}

func collect(t *testing.T, l *Log, after uint64) []Record {
	t.Helper()
	var recs []Record
	_, _, err := l.Replay(after, func(r Record) error {
		recs = append(recs, Record{Seq: r.Seq, Payload: append([]byte(nil), r.Payload...)})
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return recs
}

func TestAppendReplayRoundtrip(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{Policy: SyncAlways})
	appendN(t, l, 1, 25)
	if got := l.LastSeq(); got != 25 {
		t.Fatalf("LastSeq = %d, want 25", got)
	}
	recs := collect(t, l, 0)
	if len(recs) != 25 {
		t.Fatalf("replayed %d records, want 25", len(recs))
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d", i, r.Seq)
		}
		if want := fmt.Sprintf("record-%d", r.Seq); string(r.Payload) != want {
			t.Fatalf("record %d payload %q, want %q", i, r.Payload, want)
		}
	}
	if got := len(collect(t, l, 20)); got != 5 {
		t.Fatalf("Replay(after=20) visited %d records, want 5", got)
	}
}

func TestReopenContinues(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	appendN(t, l, 1, 7)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	l2 := mustOpen(t, dir, Options{})
	if got := l2.LastSeq(); got != 7 {
		t.Fatalf("LastSeq after reopen = %d, want 7", got)
	}
	appendN(t, l2, 8, 10)
	if got := len(collect(t, l2, 0)); got != 10 {
		t.Fatalf("replayed %d records, want 10", got)
	}
}

func TestAppendRejectsOutOfOrder(t *testing.T) {
	l := mustOpen(t, t.TempDir(), Options{})
	appendN(t, l, 1, 3)
	if err := l.Append(3, []byte("dup")); err == nil {
		t.Fatal("Append(3) twice succeeded")
	}
	if err := l.Append(5, []byte("gap")); err == nil {
		t.Fatal("Append(5) with a gap succeeded")
	}
	if err := l.Append(4, []byte("ok")); err != nil {
		t.Fatalf("Append(4): %v", err)
	}
}

func TestRotateAndTruncate(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	appendN(t, l, 1, 5)
	if err := l.Rotate(); err != nil {
		t.Fatalf("Rotate: %v", err)
	}
	appendN(t, l, 6, 9)
	if got := len(collect(t, l, 0)); got != 9 {
		t.Fatalf("after rotate: replayed %d records, want 9", got)
	}
	// The checkpoint covers records 1..5: its sealed segment goes away.
	removed, err := l.TruncateThrough(5)
	if err != nil {
		t.Fatalf("TruncateThrough: %v", err)
	}
	if removed != 1 {
		t.Fatalf("TruncateThrough removed %d segments, want 1", removed)
	}
	recs := collect(t, l, 0)
	if len(recs) != 4 || recs[0].Seq != 6 {
		t.Fatalf("after truncate: %d records starting at %d, want 4 starting at 6", len(recs), recs[0].Seq)
	}
	// A sealed segment with live records past the watermark must survive.
	if err := l.Rotate(); err != nil {
		t.Fatalf("Rotate: %v", err)
	}
	if removed, _ := l.TruncateThrough(7); removed != 0 {
		t.Fatalf("TruncateThrough(7) removed a segment holding records 6..9")
	}
}

func TestRotateIdempotentOnEmptySegment(t *testing.T) {
	l := mustOpen(t, t.TempDir(), Options{})
	appendN(t, l, 1, 3)
	if err := l.Rotate(); err != nil {
		t.Fatalf("Rotate: %v", err)
	}
	before := l.Stats()
	if err := l.Rotate(); err != nil {
		t.Fatalf("second Rotate: %v", err)
	}
	if after := l.Stats(); after.Rotations != before.Rotations || after.Segments != before.Segments {
		t.Fatalf("rotating an empty active segment changed state: %+v -> %+v", before, after)
	}
}

func TestRotateToRecordsGap(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	appendN(t, l, 1, 3)
	if err := l.RotateTo(10); err != nil {
		t.Fatalf("RotateTo(10): %v", err)
	}
	if err := l.Append(4, []byte("stale")); err == nil {
		t.Fatal("append at pre-gap seq succeeded after RotateTo")
	}
	if err := l.Append(11, []byte("post-gap")); err != nil {
		t.Fatalf("Append(11): %v", err)
	}
	if err := l.RotateTo(5); err == nil {
		t.Fatal("RotateTo behind LastSeq succeeded")
	}
	l.Close()
	l2 := mustOpen(t, dir, Options{})
	recs := collect(t, l2, 0)
	if len(recs) != 4 || recs[3].Seq != 11 {
		t.Fatalf("after reopen across gap: %d records, last %d; want 4 ending at 11", len(recs), recs[len(recs)-1].Seq)
	}
}

func TestBatchPolicyFlushesOnCountAndTimer(t *testing.T) {
	l := mustOpen(t, t.TempDir(), Options{Policy: SyncBatch, BatchRecords: 3, BatchDelay: 20 * time.Millisecond})
	appendN(t, l, 1, 2)
	if st := l.Stats(); st.Synced != 0 || st.Pending != 2 {
		t.Fatalf("before batch full: %+v", st)
	}
	appendN(t, l, 3, 3) // third append reaches BatchRecords
	if st := l.Stats(); st.Synced != 1 || st.Pending != 0 {
		t.Fatalf("after batch full: %+v", st)
	}
	appendN(t, l, 4, 4)
	deadline := time.Now().Add(2 * time.Second)
	for {
		if st := l.Stats(); st.Pending == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("batch timer never flushed: %+v", l.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestSyncDrainsPending(t *testing.T) {
	l := mustOpen(t, t.TempDir(), Options{Policy: SyncOff})
	appendN(t, l, 1, 4)
	if st := l.Stats(); st.Pending != 4 {
		t.Fatalf("SyncOff pending = %d, want 4", st.Pending)
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if st := l.Stats(); st.Pending != 0 || st.Synced != 1 {
		t.Fatalf("after Sync: %+v", st)
	}
}

// TestSyncCountFollowsPolicy pins the fsyncs each policy issues for n
// appends: one per append under SyncAlways (zero would mean "always"
// silently degraded to "off"), none under SyncOff, and between one and n
// under SyncBatch once the batch is flushed — however many the batch timer
// got to first.
func TestSyncCountFollowsPolicy(t *testing.T) {
	const n = 10
	for _, tc := range []struct {
		policy   Policy
		min, max int64
	}{
		{SyncAlways, n, n},
		{SyncOff, 0, 0},
		{SyncBatch, 1, n},
	} {
		l := mustOpen(t, t.TempDir(), Options{Policy: tc.policy, BatchRecords: 4})
		appendN(t, l, 1, n)
		if tc.policy == SyncBatch {
			if err := l.Sync(); err != nil {
				t.Fatalf("%s: Sync: %v", tc.policy, err)
			}
		}
		st := l.Stats()
		if st.Appended != n || st.Synced < tc.min || st.Synced > tc.max {
			t.Errorf("%s: %d appends gave %d fsyncs, want %d..%d", tc.policy, st.Appended, st.Synced, tc.min, tc.max)
		}
	}
}

func TestClosedLogRefuses(t *testing.T) {
	l := mustOpen(t, t.TempDir(), Options{})
	appendN(t, l, 1, 1)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := l.Append(2, []byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}
	if err := l.Rotate(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Rotate after Close = %v, want ErrClosed", err)
	}
}

// activeSegmentPath returns the highest-base segment file in dir.
func activeSegmentPath(t *testing.T, dir string) string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	if err != nil || len(names) == 0 {
		t.Fatalf("no segments in %s (%v)", dir, err)
	}
	return names[len(names)-1]
}

func TestTornTailTruncated(t *testing.T) {
	for _, cut := range []int{1, recHeaderSize - 1, recHeaderSize + 3} {
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			l := mustOpen(t, dir, Options{})
			appendN(t, l, 1, 5)
			l.Close()
			// Tear the last record: keep `cut` bytes of it.
			path := activeSegmentPath(t, dir)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			last := len(data) - (recHeaderSize + len("record-5"))
			if err := os.WriteFile(path, data[:last+cut], 0o644); err != nil {
				t.Fatal(err)
			}
			l2, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("Open after torn tail: %v", err)
			}
			defer l2.Close()
			if st := l2.Stats(); st.TornRepairs != 1 {
				t.Fatalf("TornRepairs = %d, want 1", st.TornRepairs)
			}
			if got := l2.LastSeq(); got != 4 {
				t.Fatalf("LastSeq after repair = %d, want 4", got)
			}
			// The log must accept the re-issued record 5.
			if err := l2.Append(5, []byte("record-5-retry")); err != nil {
				t.Fatalf("Append after repair: %v", err)
			}
		})
	}
}

func TestMidLogCorruptionTyped(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	appendN(t, l, 1, 6)
	l.Close()
	// Flip a payload byte of record 2 — not the tail, so not torn.
	path := activeSegmentPath(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := segHeaderSize + (recHeaderSize + len("record-1")) + recHeaderSize
	data[off] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open with mid-log corruption = %v, want ErrCorrupt", err)
	}
}

func TestSealedSegmentDamageTyped(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	appendN(t, l, 1, 3)
	if err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 4, 5)
	l.Close()
	// Truncate the SEALED segment's tail: damage there is never "torn".
	names, _ := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	if len(names) != 2 {
		t.Fatalf("want 2 segments, have %v", names)
	}
	info, err := os.Stat(names[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(names[0], info.Size()-4); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open with sealed-segment damage = %v, want ErrCorrupt", err)
	}
}

func TestTornRotationSegmentRemoved(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	appendN(t, l, 1, 3)
	l.Close()
	// Simulate a crash mid-rotation: a new segment file whose header never
	// finished writing.
	torn := filepath.Join(dir, segName(3))
	if err := os.WriteFile(torn, []byte(segMagic[:5]), 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open with torn rotation segment: %v", err)
	}
	defer l2.Close()
	if _, err := os.Stat(torn); !os.IsNotExist(err) {
		t.Fatalf("torn segment still present: %v", err)
	}
	if got := l2.LastSeq(); got != 3 {
		t.Fatalf("LastSeq = %d, want 3", got)
	}
	if err := l2.Append(4, []byte("next")); err != nil {
		t.Fatalf("Append after repair: %v", err)
	}
}

// TestByteFlipSweepNeverPanics flips every byte of a multi-segment log in
// turn and opens the result: each position must yield a clean open (with
// possible torn-tail repair) or a typed error — never a panic, never an
// unwrapped error class.
func TestByteFlipSweepNeverPanics(t *testing.T) {
	master := t.TempDir()
	l := mustOpen(t, master, Options{})
	appendN(t, l, 1, 4)
	if err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 5, 8)
	l.Close()
	names, _ := filepath.Glob(filepath.Join(master, segPrefix+"*"+segSuffix))
	for _, name := range names {
		orig, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < len(orig); off++ {
			dir := t.TempDir()
			for _, cp := range names {
				data, _ := os.ReadFile(cp)
				if cp == name {
					data = append([]byte(nil), data...)
					data[off] ^= 0xff
				}
				if err := os.WriteFile(filepath.Join(dir, filepath.Base(cp)), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			l2, err := Open(dir, Options{})
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("flip at %s+%d: untyped error %v", filepath.Base(name), off, err)
				}
				continue
			}
			// Opened — replay must also hold together.
			if _, _, err := l2.Replay(0, func(Record) error { return nil }); err != nil && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("flip at %s+%d: untyped replay error %v", filepath.Base(name), off, err)
			}
			l2.Close()
		}
	}
}

func TestReplayCallbackErrorPropagates(t *testing.T) {
	l := mustOpen(t, t.TempDir(), Options{})
	appendN(t, l, 1, 5)
	boom := errors.New("boom")
	applied, _, err := l.Replay(0, func(r Record) error {
		if r.Seq == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Replay error = %v, want boom", err)
	}
	if applied != 2 {
		t.Fatalf("applied = %d, want 2", applied)
	}
}

func TestParsePolicy(t *testing.T) {
	for in, want := range map[string]Policy{"": SyncAlways, "always": SyncAlways, "Batch": SyncBatch, "off": SyncOff} {
		got, err := ParsePolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParsePolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParsePolicy("sometimes"); err == nil {
		t.Fatal("ParsePolicy accepted garbage")
	}
}

func TestHeaderValidation(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	appendN(t, l, 1, 2)
	if err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 3, 3)
	l.Close()
	// Corrupt the SEALED segment's header base field (and leave its CRC
	// stale): typed corruption.
	names, _ := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	data, _ := os.ReadFile(names[0])
	binary.LittleEndian.PutUint64(data[16:], 99)
	os.WriteFile(names[0], data, 0o644)
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open with bad sealed header = %v, want ErrCorrupt", err)
	}
}

func TestEncodeRecordStable(t *testing.T) {
	a := encodeRecord(7, []byte("payload"))
	b := encodeRecord(7, []byte("payload"))
	if !bytes.Equal(a, b) {
		t.Fatal("encodeRecord is not deterministic")
	}
	if len(a) != recHeaderSize+len("payload") {
		t.Fatalf("record length %d", len(a))
	}
	if !strings.Contains(string(a), "payload") {
		t.Fatal("payload not embedded verbatim")
	}
}
