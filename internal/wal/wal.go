// Package wal implements the durable write-ahead log behind the MVCC
// update subsystem. The log records *logical* update operations (the
// serialized mutate.Request, not the spliced columns), appended and —
// depending on the sync policy — fsynced before the store's directory
// swap publishes the new document version. Replaying the log through the
// ordinary mutate path therefore reconstructs exactly the committed
// updates, exercised by the same splice/commit code as live traffic.
//
// # Layout
//
// A log is a directory of segment files named wal-<base>.tlcw, where
// <base> is the sequence number of the last record *before* the segment
// (records in a segment carry seq base+1, base+2, … contiguously). The
// highest-base segment is active; the rest are sealed. Each file starts
// with a 32-byte header (magic, format version, base sequence, header
// CRC) followed by length-prefixed records:
//
//	seq      uint64   commit sequence number (== store update generation)
//	len      uint32   payload length in bytes
//	crc      uint64   CRC64-ECMA over the seq+len header and the payload
//	payload  []byte   the serialized logical update
//
// # Torn tails versus corruption
//
// A crash can tear the last record (partial write at the physical end of
// the log). Open distinguishes the two failure shapes deterministically:
// a record in the *active* segment that fails to decode and whose extent
// reaches end-of-file is a torn tail — the file is truncated at the last
// good record and the log stays usable. A record that fails to decode
// with valid bytes *after* its claimed end (or any failure in a sealed
// segment) is mid-log corruption and surfaces as ErrCorrupt: silently
// skipping it would replay a divergent history. A trailing segment whose
// header never finished writing (a crash inside rotation, before any
// record could exist) is removed on open.
//
// # Sync policies
//
// SyncAlways fsyncs inside every Append — the commit is not acknowledged
// until the record is durable. SyncBatch group-commits under the log's
// single mutex: appends return once buffered, and an fsync covers the
// whole pending batch when it reaches BatchRecords or BatchDelay elapses
// (plus unconditionally at rotation and close), bounding the
// acknowledged-but-lost window to one batch. SyncOff never fsyncs on the
// append path (rotation and close still sync) — the benchmark baseline.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"tlc/internal/faultinject"
)

// Typed errors, matchable with errors.Is.
var (
	// ErrCorrupt reports mid-log corruption: a record that fails its CRC
	// or sequence check with valid data after it, damage in a sealed
	// segment, or a malformed segment header. A torn tail is *not*
	// corruption — it is repaired by truncation on open.
	ErrCorrupt = errors.New("wal: corrupt log")
	// ErrClosed reports an operation on a closed log.
	ErrClosed = errors.New("wal: log closed")
)

// Policy selects when appends reach durable storage.
type Policy int

const (
	// SyncAlways fsyncs every append before it returns.
	SyncAlways Policy = iota
	// SyncBatch group-commits: one fsync per pending batch.
	SyncBatch
	// SyncOff never fsyncs on the append path.
	SyncOff
)

func (p Policy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncBatch:
		return "batch"
	case SyncOff:
		return "off"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// ParsePolicy maps the -fsync flag spelling to its Policy ("" selects
// SyncAlways, the safe default).
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "always":
		return SyncAlways, nil
	case "batch":
		return SyncBatch, nil
	case "off":
		return SyncOff, nil
	}
	return 0, fmt.Errorf("wal: unknown sync policy %q (always|batch|off)", s)
}

// Options configures a Log.
type Options struct {
	// Policy is the durability policy (zero value: SyncAlways).
	Policy Policy
	// BatchRecords triggers a group-commit fsync once this many appends
	// are pending (SyncBatch only; default 32).
	BatchRecords int
	// BatchDelay bounds how long a pending batch may wait for company
	// before it is synced anyway (SyncBatch only; default 2ms).
	BatchDelay time.Duration
}

func (o *Options) fillDefaults() {
	if o.BatchRecords <= 0 {
		o.BatchRecords = 32
	}
	if o.BatchDelay <= 0 {
		o.BatchDelay = 2 * time.Millisecond
	}
}

// Record is one logged update: its commit sequence number and the
// serialized logical operation.
type Record struct {
	Seq     uint64
	Payload []byte
}

// Stats is a snapshot of the log's gauges and counters.
type Stats struct {
	// Policy is the configured sync policy.
	Policy string `json:"policy"`
	// Appended counts records appended since open.
	Appended int64 `json:"appended"`
	// Synced counts fsync calls since open.
	Synced int64 `json:"synced"`
	// Rotations counts segment rotations since open.
	Rotations int64 `json:"rotations"`
	// TornRepairs counts torn tails truncated (and torn trailing segments
	// removed) by Open.
	TornRepairs int64 `json:"torn_repairs"`
	// SegmentsRemoved counts sealed segments deleted by checkpoints.
	SegmentsRemoved int64 `json:"segments_removed"`
	// Segments is the current segment-file count (including the active
	// one).
	Segments int `json:"segments"`
	// Pending is the number of appended records not yet fsynced.
	Pending int `json:"pending"`
	// LastSeq is the sequence number of the newest record.
	LastSeq uint64 `json:"last_seq"`
	// Bytes counts record bytes appended since open.
	Bytes int64 `json:"bytes"`
}

const (
	segMagic      = "TLCWAL01"
	segHeaderSize = 32
	recHeaderSize = 20
	// maxRecordLen caps one record's payload; anything claiming more is
	// either a torn length field or corruption (it matches the service's
	// request body cap with lots of headroom).
	maxRecordLen = 1 << 28

	segPrefix = "wal-"
	segSuffix = ".tlcw"
)

var crcTable = crc64.MakeTable(crc64.ECMA)

// segment is one log file: records (base, last] live in it.
type segment struct {
	path string
	base uint64 // seq of the last record before this segment
	last uint64 // seq of the last record in it (== base when empty)
}

// Log is an append-only, checksummed record log. All methods are safe
// for concurrent use; appends and syncs serialize under one mutex (the
// group-commit domain).
type Log struct {
	dir  string
	opts Options

	mu       sync.Mutex
	segments []*segment // ascending base; the last one is active
	f        *os.File   // active segment
	writeOff int64      // append offset in the active segment
	pending  int        // appended records not yet fsynced
	timer    *time.Timer
	closed   bool
	// broken latches a failure after which the log can no longer
	// guarantee its tail is well-formed (a truncate-back that failed, a
	// batch fsync that failed with acknowledged records pending). Every
	// later append refuses, so the damage cannot grow silently.
	broken error

	stAppended, stSynced, stRotations int64
	stTornRepairs, stRemoved, stBytes int64
}

// Open opens (creating if needed) the log in dir, validating every
// segment: a torn tail in the active segment is truncated away, a torn
// trailing segment (crash during rotation) is removed, and mid-log
// damage returns ErrCorrupt. The returned log is positioned to append
// record LastSeq()+1.
func Open(dir string, opts Options) (*Log, error) {
	opts.fillDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{dir: dir, opts: opts}
	segs, torn, err := scanDir(dir)
	if err != nil {
		return nil, err
	}
	l.stTornRepairs += int64(torn)
	for i, sg := range segs {
		if i > 0 && sg.base < segs[i-1].last {
			return nil, fmt.Errorf("%w: segment %s base %d overlaps previous segment (records through %d)",
				ErrCorrupt, filepath.Base(sg.path), sg.base, segs[i-1].last)
		}
		isLast := i == len(segs)-1
		lastSeq, tailOff, repaired, err := scanSegment(sg.path, sg.base, isLast, nil)
		if err != nil {
			return nil, err
		}
		if repaired {
			if err := os.Truncate(sg.path, tailOff); err != nil {
				return nil, fmt.Errorf("wal: repairing torn tail of %s: %w", filepath.Base(sg.path), err)
			}
			l.stTornRepairs++
		}
		sg.last = lastSeq
	}
	if len(segs) == 0 {
		sg, err := createSegment(dir, 0)
		if err != nil {
			return nil, err
		}
		segs = append(segs, sg)
	}
	l.segments = segs
	if err := l.openActive(); err != nil {
		return nil, err
	}
	return l, nil
}

// openActive opens the active segment for appending.
func (l *Log) openActive() error {
	act := l.active()
	f, err := os.OpenFile(act.path, os.O_RDWR, 0)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	off, err := f.Seek(0, 2)
	if err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	l.f, l.writeOff = f, off
	return nil
}

func (l *Log) active() *segment { return l.segments[len(l.segments)-1] }

// LastSeq returns the sequence number of the newest appended record (0
// for an empty log whose base is 0).
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.active().last
}

// Stats returns the log's counters and gauges.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		Policy:          l.opts.Policy.String(),
		Appended:        l.stAppended,
		Synced:          l.stSynced,
		Rotations:       l.stRotations,
		TornRepairs:     l.stTornRepairs,
		SegmentsRemoved: l.stRemoved,
		Segments:        len(l.segments),
		Pending:         l.pending,
		LastSeq:         l.active().last,
		Bytes:           l.stBytes,
	}
}

// Append logs one record. Sequence numbers must be contiguous: seq must
// be exactly LastSeq()+1, which the store guarantees by calling under
// its commit lock with the next update generation. Under SyncAlways the
// record is durable when Append returns; under SyncBatch it is durable
// after the batch syncs; under SyncOff whenever the OS flushes it. An
// error means the record is NOT in the log (the tail is rolled back), so
// the caller must fail the commit.
func (l *Log) Append(seq uint64, payload []byte) error {
	if err := faultinject.Hit(faultinject.PointWALAppend); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.broken != nil {
		return fmt.Errorf("wal: log disabled by earlier failure: %w", l.broken)
	}
	act := l.active()
	if seq != act.last+1 {
		return fmt.Errorf("wal: append out of order: seq %d, want %d", seq, act.last+1)
	}
	if len(payload) == 0 || len(payload) > maxRecordLen {
		return fmt.Errorf("wal: bad payload length %d", len(payload))
	}
	rec := encodeRecord(seq, payload)
	prevOff := l.writeOff
	if _, err := l.f.WriteAt(rec, prevOff); err != nil {
		// The write may have landed partially; cut it back so the next
		// append does not land after garbage.
		if terr := l.f.Truncate(prevOff); terr != nil {
			l.broken = terr
		}
		return fmt.Errorf("wal: append: %w", err)
	}
	l.writeOff += int64(len(rec))
	act.last = seq
	l.pending++
	l.stAppended++
	l.stBytes += int64(len(rec))

	switch l.opts.Policy {
	case SyncAlways:
		if err := l.syncLocked(); err != nil {
			// The record reached the page cache but not durable storage;
			// roll it back so the failed commit cannot reappear at replay.
			if terr := l.f.Truncate(prevOff); terr != nil {
				l.broken = terr
			} else {
				l.writeOff = prevOff
				act.last = seq - 1
				l.pending--
				l.stAppended--
				l.stBytes -= int64(len(rec))
			}
			return err
		}
	case SyncBatch:
		if l.pending >= l.opts.BatchRecords {
			if err := l.syncLocked(); err != nil {
				// Earlier records of this batch were already acknowledged;
				// poison the log instead of pretending.
				l.broken = err
				return err
			}
		} else if l.timer == nil {
			l.timer = time.AfterFunc(l.opts.BatchDelay, l.flushTimer)
		}
	}
	return nil
}

// flushTimer is the SyncBatch deadline: a pending batch that never grew
// to BatchRecords still reaches the disk within BatchDelay.
func (l *Log) flushTimer() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.timer = nil
	if l.closed || l.broken != nil || l.pending == 0 {
		return
	}
	if err := l.syncLocked(); err != nil {
		l.broken = err
	}
}

// syncLocked fsyncs the active segment. Caller holds l.mu.
func (l *Log) syncLocked() error {
	if err := faultinject.Hit(faultinject.PointWALFsync); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.pending = 0
	l.stSynced++
	if l.timer != nil {
		l.timer.Stop()
		l.timer = nil
	}
	return nil
}

// Sync forces any pending records to durable storage (a group-commit
// flush on demand; shutdown paths call it via Close).
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.broken != nil {
		return l.broken
	}
	if l.pending == 0 {
		return nil
	}
	return l.syncLocked()
}

// Rotate seals the active segment (fsyncing any pending records) and
// starts a new one based at the current last sequence — step one of the
// snapshot checkpoint protocol. Rotating an already-empty active segment
// is a no-op, which makes back-to-back checkpoints idempotent.
func (l *Log) Rotate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rotateTo(l.active().last)
}

// RotateTo is Rotate with an explicit base ≥ LastSeq(). It records a
// deliberate sequence gap: after a snapshot is bulk-loaded into a store
// whose generation jumps past the log, the next appends continue at the
// new generation in a fresh segment.
func (l *Log) RotateTo(base uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if base < l.active().last {
		return fmt.Errorf("wal: rotate to base %d behind last record %d", base, l.active().last)
	}
	return l.rotateTo(base)
}

func (l *Log) rotateTo(base uint64) error {
	if l.closed {
		return ErrClosed
	}
	if l.broken != nil {
		return fmt.Errorf("wal: log disabled by earlier failure: %w", l.broken)
	}
	act := l.active()
	if act.last == act.base && act.base == base {
		return nil // active segment is already fresh at this base
	}
	if err := faultinject.Hit(faultinject.PointWALRotate); err != nil {
		return err
	}
	// Everything in the sealed segment must be durable before the new
	// segment exists: replay trusts sealed segments completely.
	if l.pending > 0 {
		if err := l.syncLocked(); err != nil {
			return err
		}
	}
	sg, err := createSegment(l.dir, base)
	if err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		os.Remove(sg.path)
		return fmt.Errorf("wal: sealing %s: %w", filepath.Base(act.path), err)
	}
	l.segments = append(l.segments, sg)
	if err := l.openActive(); err != nil {
		l.broken = err
		return err
	}
	l.stRotations++
	// A sealed segment with no records carries nothing to replay; drop it
	// now instead of waiting for a checkpoint.
	if act.last == act.base {
		if err := os.Remove(act.path); err == nil {
			l.stRemoved++
			l.segments = append(l.segments[:len(l.segments)-2], sg)
			syncDir(l.dir)
		}
	}
	return nil
}

// TruncateThrough deletes sealed segments whose records are all ≤ seq —
// step three of the checkpoint protocol, after the snapshot holding
// those updates is durably on disk. The active segment is never removed.
func (l *Log) TruncateThrough(seq uint64) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	removed := 0
	kept := l.segments[:0]
	for i, sg := range l.segments {
		if i < len(l.segments)-1 && sg.last <= seq {
			if err := os.Remove(sg.path); err != nil {
				kept = append(kept, l.segments[i:]...)
				l.segments = kept
				return removed, fmt.Errorf("wal: truncate: %w", err)
			}
			removed++
			l.stRemoved++
			continue
		}
		kept = append(kept, sg)
	}
	l.segments = kept
	if removed > 0 {
		syncDir(l.dir)
	}
	return removed, nil
}

// Replay streams every record with seq > after to fn, in sequence
// order, re-reading the segment files (Open already validated and
// repaired them). It returns how many records fn received and how many
// were skipped as at-or-below the watermark. An error from fn aborts the
// replay and is returned verbatim.
func (l *Log) Replay(after uint64, fn func(Record) error) (applied, skipped int, err error) {
	l.mu.Lock()
	segs := append([]*segment(nil), l.segments...)
	l.mu.Unlock()
	for i, sg := range segs {
		isLast := i == len(segs)-1
		_, _, _, err := scanSegment(sg.path, sg.base, isLast, func(rec Record) error {
			if rec.Seq <= after {
				skipped++
				return nil
			}
			if err := fn(rec); err != nil {
				return err
			}
			applied++
			return nil
		})
		if err != nil {
			return applied, skipped, err
		}
	}
	return applied, skipped, nil
}

// Close fsyncs pending records and closes the active segment. Closing a
// closed log is a no-op.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.timer != nil {
		l.timer.Stop()
		l.timer = nil
	}
	var firstErr error
	if l.pending > 0 && l.broken == nil {
		firstErr = l.syncLocked()
	}
	if err := l.f.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// encodeRecord renders one record: seq, length, CRC over header+payload,
// payload.
func encodeRecord(seq uint64, payload []byte) []byte {
	buf := make([]byte, recHeaderSize+len(payload))
	binary.LittleEndian.PutUint64(buf[0:], seq)
	binary.LittleEndian.PutUint32(buf[8:], uint32(len(payload)))
	copy(buf[recHeaderSize:], payload)
	c := crc64.Checksum(buf[:12], crcTable)
	c = crc64.Update(c, crcTable, payload)
	binary.LittleEndian.PutUint64(buf[12:], c)
	return buf
}

// scanSegment walks one segment file, calling fn (when non-nil) per
// record. It returns the last sequence seen and, for the active segment,
// whether a torn tail was found and the offset to truncate it at.
// Anomalies follow the package's torn-versus-corrupt rule: in the active
// (last) segment, a record whose claimed extent reaches end-of-file is a
// torn tail; an undecodable record with data after it — and any anomaly
// in a sealed segment — is ErrCorrupt.
func scanSegment(path string, base uint64, isLast bool, fn func(Record) error) (lastSeq uint64, tailOff int64, torn bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, false, fmt.Errorf("wal: %w", err)
	}
	name := filepath.Base(path)
	size := len(data)
	off := segHeaderSize
	lastSeq = base
	want := base + 1
	for off < size {
		overrun := size-off < recHeaderSize
		var seq, crc uint64
		var plen int
		var end int
		if !overrun {
			seq = binary.LittleEndian.Uint64(data[off:])
			plen = int(binary.LittleEndian.Uint32(data[off+8:]))
			crc = binary.LittleEndian.Uint64(data[off+12:])
			end = off + recHeaderSize + plen
			if plen > maxRecordLen || end < off || end > size {
				overrun = true
			}
		}
		if overrun {
			if isLast {
				return lastSeq, int64(off), true, nil
			}
			return 0, 0, false, fmt.Errorf("%w: record at offset %d of sealed segment %s overruns end of file", ErrCorrupt, off, name)
		}
		payload := data[off+recHeaderSize : end]
		c := crc64.Checksum(data[off:off+12], crcTable)
		c = crc64.Update(c, crcTable, payload)
		switch {
		case plen == 0 || c != crc || seq != want:
			if isLast && end == size {
				// The bad record is the physical tail: a torn write.
				return lastSeq, int64(off), true, nil
			}
			return 0, 0, false, fmt.Errorf("%w: record %d at offset %d of %s fails validation (seq %d, want %d)",
				ErrCorrupt, want, off, name, seq, want)
		}
		if fn != nil {
			if err := fn(Record{Seq: seq, Payload: payload}); err != nil {
				return lastSeq, int64(off), false, err
			}
		}
		lastSeq = seq
		want++
		off = end
	}
	return lastSeq, int64(off), false, nil
}

// scanDir lists and header-validates the segment files in dir, sorted by
// base sequence. A trailing segment whose header never finished writing
// (crash inside rotation) is removed and counted; a malformed header
// anywhere else is ErrCorrupt.
func scanDir(dir string) ([]*segment, int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, 0, fmt.Errorf("wal: %w", err)
	}
	var segs []*segment
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		base, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix), 16, 64)
		if err != nil {
			continue
		}
		segs = append(segs, &segment{path: filepath.Join(dir, name), base: base, last: base})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].base < segs[j].base })
	torn := 0
	for i := 0; i < len(segs); i++ {
		err := checkHeader(segs[i])
		if err == nil {
			continue
		}
		if i == len(segs)-1 {
			// A bad header on the newest segment is a crash during
			// rotation — but only if no record bytes follow it. The header
			// is fsynced before the first append, so a record-bearing
			// segment can never legitimately have a damaged header; that
			// shape is corruption, and dropping it would lose durable data.
			if fi, serr := os.Stat(segs[i].path); serr == nil && fi.Size() <= segHeaderSize {
				if rerr := os.Remove(segs[i].path); rerr != nil {
					return nil, torn, fmt.Errorf("wal: removing torn segment: %w", rerr)
				}
				segs = segs[:i]
				torn++
				syncDir(dir)
				break
			}
		}
		return nil, torn, err
	}
	return segs, torn, nil
}

// checkHeader validates one segment's 32-byte header against its name.
func checkHeader(sg *segment) error {
	f, err := os.Open(sg.path)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	hdr := make([]byte, segHeaderSize)
	if _, err := io.ReadFull(f, hdr); err != nil {
		return fmt.Errorf("%w: segment %s: short header", ErrCorrupt, filepath.Base(sg.path))
	}
	if string(hdr[:8]) != segMagic {
		return fmt.Errorf("%w: segment %s: bad magic", ErrCorrupt, filepath.Base(sg.path))
	}
	if v := binary.LittleEndian.Uint32(hdr[8:]); v != 1 {
		return fmt.Errorf("%w: segment %s: unsupported format version %d", ErrCorrupt, filepath.Base(sg.path), v)
	}
	if got := binary.LittleEndian.Uint64(hdr[24:]); got != crc64.Checksum(hdr[:24], crcTable) {
		return fmt.Errorf("%w: segment %s: header checksum mismatch", ErrCorrupt, filepath.Base(sg.path))
	}
	if base := binary.LittleEndian.Uint64(hdr[16:]); base != sg.base {
		return fmt.Errorf("%w: segment %s: header base %d does not match file name", ErrCorrupt, filepath.Base(sg.path), base)
	}
	return nil
}

// createSegment writes a new segment file (header only), fsyncing the
// file and its directory before returning — a crash after createSegment
// leaves a valid empty segment, a crash during it leaves a torn one that
// scanDir removes.
func createSegment(dir string, base uint64) (*segment, error) {
	path := filepath.Join(dir, segName(base))
	hdr := make([]byte, segHeaderSize)
	copy(hdr, segMagic)
	binary.LittleEndian.PutUint32(hdr[8:], 1)
	binary.LittleEndian.PutUint64(hdr[16:], base)
	binary.LittleEndian.PutUint64(hdr[24:], crc64.Checksum(hdr[:24], crcTable))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	if _, err := f.Write(hdr); err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		os.Remove(path)
		return nil, fmt.Errorf("wal: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(path)
		return nil, fmt.Errorf("wal: %w", err)
	}
	syncDir(dir)
	return &segment{path: path, base: base, last: base}, nil
}

func segName(base uint64) string { return fmt.Sprintf("%s%016x%s", segPrefix, base, segSuffix) }

// syncDir fsyncs a directory so entry creations/removals are durable;
// best-effort on platforms where directories cannot be synced.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
