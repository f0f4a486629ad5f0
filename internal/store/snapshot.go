package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"unsafe"
)

// This file implements the persistent snapshot format of the columnar
// store. A snapshot is a directory of per-shard files plus a manifest:
//
//	snapdir/
//	  manifest.tlcm     document list in global DocID order, shard map
//	  shard-0000.tlcs   shard 0: columns, indexes, dictionaries, stats
//	  shard-0003.tlcs   (shards without documents write no file)
//
// Every file is a 48-byte header followed by a checksummed payload:
//
//	[0:8)   magic ("TLCSNAP1" / "TLCMANI1")
//	[8:12)  format version (1)
//	[12:16) byte-order marker 0x01020304, written in native order
//	[16:20) shard index (0xFFFFFFFF in the manifest)
//	[20:24) shard count
//	[24:28) document count
//	[28:32) update generation (manifest; reserved 0 in shard files)
//	[32:40) payload length
//	[40:48) CRC-64/ECMA of the payload
//
// The update generation records how many mutations had been committed
// into the store when the snapshot was written (word [28:32) was reserved
// as zero before MVCC updates existed, so the format version is
// unchanged). SnapshotUpdateGen reads it back without decoding the
// payload; comparing it against Store.UpdateGeneration detects a snapshot
// that has gone stale relative to a store that kept taking writes. Each
// document record likewise carries its MVCC version in the previously
// reserved Res0 word (0 in old snapshots, read back as version 1), so a
// snapshot written after updates round-trips the version chain.
//
// The shard payload opens with a fixed section table (21 entries of
// {offset, length}, offsets 8-byte aligned) locating the columns, the
// index directories and postings, the dictionary string blobs, and the
// flattened statistics records; the document records tie per-document
// spans into those shard-wide arrays. Because the in-memory layout is
// already flat integer columns plus string dictionaries, opening a
// snapshot is a validation pass plus pointer casts into the mapped file —
// no per-node decoding. Integer sections are written in native byte
// order; the order marker rejects a snapshot from a platform with the
// opposite endianness instead of misreading it.
//
// Writes are atomic: each file is assembled in memory, written to a .tmp
// name and renamed into place; the manifest is written last, so a crash
// mid-snapshot leaves no manifest and the snapshot is simply absent.
//
// Opened snapshots are backed by mmap where available (mmap_unix.go) with
// a plain read-into-memory fallback elsewhere (mmap_other.go). Column
// slices, dictionary strings and document names are zero-copy views into
// the mapping; they remain valid until Store.Close, which is the only
// point the mapping is unmapped.

// Typed snapshot errors. Every failure mode of open/load wraps one of
// these (use errors.Is); corrupted input must never panic.
var (
	// ErrSnapshotVersion reports a snapshot written by an incompatible
	// format version or byte order.
	ErrSnapshotVersion = errors.New("store: incompatible snapshot version")
	// ErrSnapshotChecksum reports payload corruption detected by CRC.
	ErrSnapshotChecksum = errors.New("store: snapshot checksum mismatch")
	// ErrSnapshotCorrupt reports structural corruption: truncation, bad
	// magic, out-of-bounds sections or records.
	ErrSnapshotCorrupt = errors.New("store: snapshot corrupt")
	// ErrSnapshotMismatch reports a snapshot that is internally valid but
	// incompatible with the target store (shard count, duplicate names).
	ErrSnapshotMismatch = errors.New("store: snapshot mismatch")
)

const (
	snapMagic   = "TLCSNAP1"
	maniMagic   = "TLCMANI1"
	snapVersion = 1
	orderMarker = 0x01020304

	headerSize  = 48
	numSections = 21

	manifestName = "manifest.tlcm"
)

// Section indexes of the shard payload.
const (
	secDocs = iota
	secNames
	secStart
	secEnd
	secLevel
	secParent
	secFirstChild
	secKind
	secTag
	secVal
	secTagDir
	secValDir
	secTagPost
	secValPost
	secTagDictOffs
	secTagDictBytes
	secValDictOffs
	secValDictBytes
	secTagStats
	secChildPairs
	secDescPairs
)

// docRec is the fixed-size per-document record of a shard file (18
// uint32 words). Spans index the shard-wide section arrays.
type docRec struct {
	NameOff, NameLen   uint32
	Base, Nodes        uint32
	TagDirOff, TagDirN uint32
	ValDirOff, ValDirN uint32
	RootTag            uint32
	Depth              int32
	TSOff, TSN         uint32
	CPOff, CPN         uint32
	DPOff, DPN         uint32
	Res0, Res1         uint32
}

var crcTable = crc64.MakeTable(crc64.ECMA)

func shardFileName(i int) string { return fmt.Sprintf("shard-%04d.tlcs", i) }

// rawBytes reinterprets a typed slice as its backing bytes (native byte
// order). The result aliases v.
func rawBytes[T any](v []T) []byte {
	if len(v) == 0 {
		return nil
	}
	size := int(unsafe.Sizeof(v[0]))
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*size)
}

// rawView reinterprets a byte section as a typed slice without copying
// when the data is aligned, falling back to a copy when it is not (the
// writer always aligns, but a hand-crafted file must not panic).
func rawView[T any](b []byte) ([]T, error) {
	var zero T
	size := int(unsafe.Sizeof(zero))
	if len(b)%size != 0 {
		return nil, fmt.Errorf("%w: section length %d not a multiple of %d", ErrSnapshotCorrupt, len(b), size)
	}
	n := len(b) / size
	if n == 0 {
		return nil, nil
	}
	if uintptr(unsafe.Pointer(&b[0]))%uintptr(unsafe.Alignof(zero)) == 0 {
		return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n), nil
	}
	out := make([]T, n)
	copy(rawBytes(out), b)
	return out, nil
}

// section is one entry of the payload section table.
type section struct{ off, n uint64 }

// assembler builds a payload: a section table followed by 8-aligned
// sections.
type assembler struct {
	buf  []byte
	secs []section
}

func newAssembler() *assembler {
	return &assembler{buf: make([]byte, numSections*16)}
}

func (a *assembler) add(b []byte) {
	for len(a.buf)%8 != 0 {
		a.buf = append(a.buf, 0)
	}
	a.secs = append(a.secs, section{off: uint64(len(a.buf)), n: uint64(len(b))})
	a.buf = append(a.buf, b...)
}

func (a *assembler) finish() []byte {
	if len(a.secs) != numSections {
		panic("store: snapshot assembler section count")
	}
	for i, s := range a.secs {
		binary.NativeEndian.PutUint64(a.buf[i*16:], s.off)
		binary.NativeEndian.PutUint64(a.buf[i*16+8:], s.n)
	}
	return a.buf
}

// putHeader prepends the 48-byte header for a payload. extra fills the
// word at [28:32): the update generation in the manifest, 0 elsewhere.
func putHeader(magic string, shardIdx, shardCount, docCount, extra uint32, payload []byte) []byte {
	out := make([]byte, headerSize, headerSize+len(payload))
	copy(out[0:8], magic)
	binary.NativeEndian.PutUint32(out[8:], snapVersion)
	binary.NativeEndian.PutUint32(out[12:], orderMarker)
	binary.NativeEndian.PutUint32(out[16:], shardIdx)
	binary.NativeEndian.PutUint32(out[20:], shardCount)
	binary.NativeEndian.PutUint32(out[24:], docCount)
	binary.NativeEndian.PutUint32(out[28:], extra)
	binary.NativeEndian.PutUint64(out[32:], uint64(len(payload)))
	binary.NativeEndian.PutUint64(out[40:], crc64.Checksum(payload, crcTable))
	return append(out, payload...)
}

// header is the decoded common file header.
type header struct {
	shardIdx, shardCount, docCount uint32
	extra                          uint32
	payload                        []byte
}

// parseHeader validates a file's header and checksum and returns the
// payload view.
func parseHeader(data []byte, magic, what string) (header, error) {
	var h header
	if len(data) < headerSize {
		return h, fmt.Errorf("%w: %s truncated (%d bytes)", ErrSnapshotCorrupt, what, len(data))
	}
	if string(data[0:8]) != magic {
		return h, fmt.Errorf("%w: %s has bad magic %q", ErrSnapshotCorrupt, what, string(data[0:8]))
	}
	if v := binary.NativeEndian.Uint32(data[8:]); v != snapVersion {
		return h, fmt.Errorf("%w: %s has version %d, this build reads %d", ErrSnapshotVersion, what, v, snapVersion)
	}
	if m := binary.NativeEndian.Uint32(data[12:]); m != orderMarker {
		return h, fmt.Errorf("%w: %s was written with a different byte order", ErrSnapshotVersion, what)
	}
	h.shardIdx = binary.NativeEndian.Uint32(data[16:])
	h.shardCount = binary.NativeEndian.Uint32(data[20:])
	h.docCount = binary.NativeEndian.Uint32(data[24:])
	h.extra = binary.NativeEndian.Uint32(data[28:])
	plen := binary.NativeEndian.Uint64(data[32:])
	if plen != uint64(len(data)-headerSize) {
		return h, fmt.Errorf("%w: %s payload length %d, file has %d", ErrSnapshotCorrupt, what, plen, len(data)-headerSize)
	}
	h.payload = data[headerSize:]
	if sum := crc64.Checksum(h.payload, crcTable); sum != binary.NativeEndian.Uint64(data[40:]) {
		return h, fmt.Errorf("%w: %s", ErrSnapshotChecksum, what)
	}
	return h, nil
}

// writeAtomic writes data to path via a temp file and rename.
func writeAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// SnapshotInfo summarizes a written snapshot.
type SnapshotInfo struct {
	// Dir is the snapshot directory.
	Dir string
	// Bytes is the total size of the written files.
	Bytes int64
	// Docs is the number of documents captured.
	Docs int
	// ShardFiles is the number of shard files written (shards that held
	// at least one document).
	ShardFiles int
	// UpdateGen is the update generation captured in the manifest — the
	// watermark below which WAL records are covered by this snapshot.
	UpdateGen uint64
}

// WriteSnapshot captures the current contents of the store into dir (one
// file per non-empty shard plus a manifest, each written atomically; the
// manifest last, so an interrupted snapshot is absent rather than
// partial). It may run concurrently with queries and loads: it writes the
// directory state current when it starts.
func (s *Store) WriteSnapshot(dir string) (SnapshotInfo, error) {
	info := SnapshotInfo{Dir: dir}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return info, fmt.Errorf("store: snapshot: %w", err)
	}
	// Capture a consistent (directory, shard membership, update
	// generation) triple.
	s.loadMu.Lock()
	d := s.dir.Load()
	updateGen := s.updateGen.Load()
	info.UpdateGen = updateGen
	shardDocs := make([][]DocID, len(s.shards))
	for i, sh := range s.shards {
		shardDocs[i] = append([]DocID(nil), sh.docs...)
	}
	s.loadMu.Unlock()

	for i, ids := range shardDocs {
		if len(ids) == 0 {
			continue
		}
		docs := make([]*Doc, len(ids))
		for j, id := range ids {
			docs[j] = d.docs[id]
		}
		payload := encodeShard(docs)
		file := putHeader(snapMagic, uint32(i), uint32(len(s.shards)), uint32(len(docs)), 0, payload)
		if err := writeAtomic(filepath.Join(dir, shardFileName(i)), file); err != nil {
			return info, fmt.Errorf("store: snapshot shard %d: %w", i, err)
		}
		info.Bytes += int64(len(file))
		info.ShardFiles++
	}

	mani := encodeManifest(d)
	file := putHeader(maniMagic, ^uint32(0), uint32(len(s.shards)), uint32(len(d.docs)), uint32(updateGen), mani)
	if err := writeAtomic(filepath.Join(dir, manifestName), file); err != nil {
		return info, fmt.Errorf("store: snapshot manifest: %w", err)
	}
	info.Bytes += int64(len(file))
	info.Docs = len(d.docs)
	return info, nil
}

// dictWriter interns strings into the per-file dictionary being written.
type dictWriter struct {
	strs []string
	idx  map[string]uint32
}

func newDictWriter() *dictWriter {
	return &dictWriter{idx: make(map[string]uint32)}
}

func (w *dictWriter) intern(s string) uint32 {
	if id, ok := w.idx[s]; ok {
		return id
	}
	id := uint32(len(w.strs))
	w.strs = append(w.strs, s)
	w.idx[s] = id
	return id
}

// remapAll builds the translation from live dictionary IDs to file
// dictionary IDs for every dictionary the documents use, in order of first
// use (which(doc) picks a document's dictionary and the directory that
// indexes it). Only IDs that some document's directory names are written,
// in ascending order: a live dictionary also remembers every string that
// updates brought and later removed, and a checkpoint that persisted them
// would hand the garbage to the next process. For a store that was never
// updated every ID is live and the file dictionary is the live one.
func (w *dictWriter) remapAll(docs []*Doc, which func(*Doc) (*dict, []dirEntry)) map[*dict][]uint32 {
	var order []*dict
	live := make(map[*dict][]bool)
	for _, doc := range docs {
		d, dir := which(doc)
		if live[d] == nil {
			order = append(order, d)
			live[d] = make([]bool, d.size())
		}
		for _, e := range dir {
			live[d][e.id] = true
		}
	}
	out := make(map[*dict][]uint32, len(order))
	for _, d := range order {
		r := make([]uint32, len(live[d]))
		for id, ok := range live[d] {
			if ok {
				r[id] = w.intern(d.str(uint32(id)))
			}
		}
		out[d] = r
	}
	return out
}

// encode appends the dictionary as an offsets array (len+1 entries) and a
// concatenated byte blob.
func (w *dictWriter) encode() ([]uint32, []byte) {
	offs := make([]uint32, len(w.strs)+1)
	total := 0
	for i, s := range w.strs {
		offs[i] = uint32(total)
		total += len(s)
	}
	offs[len(w.strs)] = uint32(total)
	blob := make([]byte, 0, total)
	for _, s := range w.strs {
		blob = append(blob, s...)
	}
	return offs, blob
}

// encodeShard flattens a shard's documents into one payload.
func encodeShard(docs []*Doc) []byte {
	var (
		recs                             []docRec
		names                            []byte
		start, end, level, parent, first []int32
		kind                             []uint8
		tagCol, valCol                   []uint32
		tagDir, valDir                   []dirEntry
		tagPost, valPost                 []int32
		statRecs                         []tagStatRec
		childPairs, descPairs            []pairRec
	)
	tagW, valW := newDictWriter(), newDictWriter()
	tagMaps := tagW.remapAll(docs, func(d *Doc) (*dict, []dirEntry) { return d.tags, d.tagDir })
	valMaps := valW.remapAll(docs, func(d *Doc) (*dict, []dirEntry) { return d.vals, d.valDir })

	for _, doc := range docs {
		rt, rv := tagMaps[doc.tags], valMaps[doc.vals]
		rec := docRec{
			NameOff: uint32(len(names)), NameLen: uint32(len(doc.name)),
			Base: uint32(len(start)), Nodes: uint32(doc.Len()),
			RootTag: rt[doc.stats.rootTag], Depth: doc.stats.depth,
			Res0: uint32(doc.version),
		}
		names = append(names, doc.name...)
		start = append(start, doc.c.start...)
		end = append(end, doc.c.end...)
		level = append(level, doc.c.level...)
		parent = append(parent, doc.c.parent...)
		first = append(first, doc.c.firstChild...)
		kind = append(kind, doc.c.kind...)
		for _, t := range doc.c.tag {
			tagCol = append(tagCol, rt[t])
		}
		for _, v := range doc.c.val {
			if v == 0 {
				valCol = append(valCol, 0)
			} else {
				valCol = append(valCol, rv[v-1]+1)
			}
		}

		// Indexes: postings are re-extracted per directory entry so the
		// encoding is identical whether the source document was built on
		// the heap (doc-local offsets) or opened from an earlier snapshot
		// (shard-wide offsets).
		rec.TagDirOff, rec.TagDirN = uint32(len(tagDir)), uint32(len(doc.tagDir))
		tagDir, tagPost = appendIndex(tagDir, tagPost, doc.tagDir, doc.tagPost, rt)
		rec.ValDirOff, rec.ValDirN = uint32(len(valDir)), uint32(len(doc.valDir))
		valDir, valPost = appendIndex(valDir, valPost, doc.valDir, doc.valPost, rv)

		// Statistics: the in-memory arrays are the file's records, sorted by
		// live ID; re-sorted because the translation to file IDs need not
		// be monotonic when two live dictionaries share strings.
		rec.TSOff, rec.TSN = uint32(len(statRecs)), uint32(len(doc.stats.tags))
		statRecs = append(statRecs, doc.stats.tags...)
		ts := statRecs[rec.TSOff:]
		for i := range ts {
			ts[i].Tag = rt[ts[i].Tag]
		}
		slices.SortFunc(ts, cmpTagStat)
		rec.CPOff, rec.CPN = uint32(len(childPairs)), uint32(len(doc.stats.child))
		childPairs = appendPairs(childPairs, doc.stats.child, rt)
		rec.DPOff, rec.DPN = uint32(len(descPairs)), uint32(len(doc.stats.desc))
		descPairs = appendPairs(descPairs, doc.stats.desc, rt)

		recs = append(recs, rec)
	}

	tagOffs, tagBytes := tagW.encode()
	valOffs, valBytes := valW.encode()

	a := newAssembler()
	a.add(rawBytes(recs))       // secDocs
	a.add(names)                // secNames
	a.add(rawBytes(start))      // secStart
	a.add(rawBytes(end))        // secEnd
	a.add(rawBytes(level))      // secLevel
	a.add(rawBytes(parent))     // secParent
	a.add(rawBytes(first))      // secFirstChild
	a.add(kind)                 // secKind
	a.add(rawBytes(tagCol))     // secTag
	a.add(rawBytes(valCol))     // secVal
	a.add(rawBytes(tagDir))     // secTagDir
	a.add(rawBytes(valDir))     // secValDir
	a.add(rawBytes(tagPost))    // secTagPost
	a.add(rawBytes(valPost))    // secValPost
	a.add(rawBytes(tagOffs))    // secTagDictOffs
	a.add(tagBytes)             // secTagDictBytes
	a.add(rawBytes(valOffs))    // secValDictOffs
	a.add(valBytes)             // secValDictBytes
	a.add(rawBytes(statRecs))   // secTagStats
	a.add(rawBytes(childPairs)) // secChildPairs
	a.add(rawBytes(descPairs))  // secDescPairs
	return a.finish()
}

// appendIndex copies one document's index into the shard-wide arrays,
// remapping directory IDs to the file dictionary and offsets to the
// shard-wide postings array, and re-sorting the directory by file ID.
func appendIndex(dir []dirEntry, post []int32, srcDir []dirEntry, srcPost []int32, remap []uint32) ([]dirEntry, []int32) {
	ds := make([]dirEntry, len(srcDir))
	for j, e := range srcDir {
		ds[j] = dirEntry{id: remap[e.id], off: uint32(len(post)), n: e.n}
		post = append(post, srcPost[e.off:e.off+e.n]...)
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i].id < ds[j].id })
	return append(dir, ds...), post
}

// appendPairs copies one document's pair counts into the shard-wide
// array, translated to file IDs and sorted by them.
func appendPairs(dst, src []pairRec, remap []uint32) []pairRec {
	n := len(dst)
	dst = append(dst, src...)
	for i := n; i < len(dst); i++ {
		dst[i].Up, dst[i].Down = remap[dst[i].Up], remap[dst[i].Down]
	}
	slices.SortFunc(dst[n:], cmpPair)
	return dst
}

// encodeManifest lists the documents in global DocID order.
func encodeManifest(d *directory) []byte {
	var buf []byte
	var tmp [8]byte
	for _, doc := range d.docs {
		binary.NativeEndian.PutUint32(tmp[0:], uint32(doc.shard))
		binary.NativeEndian.PutUint32(tmp[4:], uint32(len(doc.name)))
		buf = append(buf, tmp[:]...)
		buf = append(buf, doc.name...)
	}
	return buf
}

// maniEntry is one decoded manifest record.
type maniEntry struct {
	shard int
	name  string
}

func decodeManifest(data []byte) (shardCount int, updateGen uint64, entries []maniEntry, err error) {
	h, err := parseHeader(data, maniMagic, "manifest")
	if err != nil {
		return 0, 0, nil, err
	}
	if h.shardCount == 0 || h.shardCount > 1024 {
		return 0, 0, nil, fmt.Errorf("%w: manifest shard count %d", ErrSnapshotCorrupt, h.shardCount)
	}
	p := h.payload
	entries = make([]maniEntry, 0, h.docCount)
	for i := uint32(0); i < h.docCount; i++ {
		if len(p) < 8 {
			return 0, 0, nil, fmt.Errorf("%w: manifest truncated at entry %d", ErrSnapshotCorrupt, i)
		}
		sh := binary.NativeEndian.Uint32(p[0:])
		nameLen := binary.NativeEndian.Uint32(p[4:])
		p = p[8:]
		if sh >= h.shardCount {
			return 0, 0, nil, fmt.Errorf("%w: manifest entry %d names shard %d of %d", ErrSnapshotCorrupt, i, sh, h.shardCount)
		}
		if uint64(nameLen) > uint64(len(p)) {
			return 0, 0, nil, fmt.Errorf("%w: manifest entry %d name overruns payload", ErrSnapshotCorrupt, i)
		}
		entries = append(entries, maniEntry{shard: int(sh), name: string(p[:nameLen])})
		p = p[nameLen:]
	}
	if len(p) != 0 {
		return 0, 0, nil, fmt.Errorf("%w: manifest has %d trailing bytes", ErrSnapshotCorrupt, len(p))
	}
	return int(h.shardCount), uint64(h.extra), entries, nil
}

// SnapshotUpdateGen reads the update generation recorded in a snapshot's
// manifest without decoding the document payloads. Compared against
// Store.UpdateGeneration it detects a snapshot that predates later
// commits (stale relative to the live store). Snapshots written before
// MVCC updates report 0.
func SnapshotUpdateGen(dir string) (uint64, error) {
	maniData, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return 0, fmt.Errorf("store: open snapshot: %w", err)
	}
	h, err := parseHeader(maniData, maniMagic, "manifest")
	if err != nil {
		return 0, fmt.Errorf("store: open snapshot %s: %w", dir, err)
	}
	return uint64(h.extra), nil
}

// sectionView locates one section of a payload.
func sectionView(payload []byte, secs []section, i int) ([]byte, error) {
	s := secs[i]
	if s.off%8 != 0 || s.off > uint64(len(payload)) || s.n > uint64(len(payload))-s.off {
		return nil, fmt.Errorf("%w: section %d spans [%d, %d) of %d", ErrSnapshotCorrupt, i, s.off, s.off+s.n, len(payload))
	}
	return payload[s.off : s.off+s.n : s.off+s.n], nil
}

// decodeShard turns one mapped shard file into document views. The
// returned Docs have no DocID assigned yet (the manifest order decides
// that); every slice and string aliases data.
func decodeShard(data []byte, wantShard, wantCount int) ([]*Doc, error) {
	what := shardFileName(wantShard)
	h, err := parseHeader(data, snapMagic, what)
	if err != nil {
		return nil, err
	}
	if int(h.shardIdx) != wantShard || int(h.shardCount) != wantCount {
		return nil, fmt.Errorf("%w: %s claims shard %d of %d, manifest says %d of %d",
			ErrSnapshotMismatch, what, h.shardIdx, h.shardCount, wantShard, wantCount)
	}
	if len(h.payload) < numSections*16 {
		return nil, fmt.Errorf("%w: %s payload too short for section table", ErrSnapshotCorrupt, what)
	}
	secs := make([]section, numSections)
	for i := range secs {
		secs[i] = section{
			off: binary.NativeEndian.Uint64(h.payload[i*16:]),
			n:   binary.NativeEndian.Uint64(h.payload[i*16+8:]),
		}
	}
	raw := make([][]byte, numSections)
	for i := range raw {
		if raw[i], err = sectionView(h.payload, secs, i); err != nil {
			return nil, err
		}
	}

	recs, err := rawView[docRec](raw[secDocs])
	if err != nil {
		return nil, err
	}
	if uint32(len(recs)) != h.docCount {
		return nil, fmt.Errorf("%w: %s has %d doc records, header says %d", ErrSnapshotCorrupt, what, len(recs), h.docCount)
	}
	start, err1 := rawView[int32](raw[secStart])
	end, err2 := rawView[int32](raw[secEnd])
	level, err3 := rawView[int32](raw[secLevel])
	parent, err4 := rawView[int32](raw[secParent])
	first, err5 := rawView[int32](raw[secFirstChild])
	tagCol, err6 := rawView[uint32](raw[secTag])
	valCol, err7 := rawView[uint32](raw[secVal])
	tagDir, err8 := rawView[dirEntry](raw[secTagDir])
	valDir, err9 := rawView[dirEntry](raw[secValDir])
	tagPost, err10 := rawView[int32](raw[secTagPost])
	valPost, err11 := rawView[int32](raw[secValPost])
	statRecs, err12 := rawView[tagStatRec](raw[secTagStats])
	childPairs, err13 := rawView[pairRec](raw[secChildPairs])
	descPairs, err14 := rawView[pairRec](raw[secDescPairs])
	for _, e := range []error{err1, err2, err3, err4, err5, err6, err7, err8, err9, err10, err11, err12, err13, err14} {
		if e != nil {
			return nil, e
		}
	}
	kind := raw[secKind]
	rows := len(start)
	if len(end) != rows || len(level) != rows || len(parent) != rows ||
		len(first) != rows || len(kind) != rows || len(tagCol) != rows || len(valCol) != rows {
		return nil, fmt.Errorf("%w: %s column lengths disagree", ErrSnapshotCorrupt, what)
	}

	tags, err := decodeDict(raw[secTagDictOffs], raw[secTagDictBytes], what)
	if err != nil {
		return nil, err
	}
	vals, err := decodeDict(raw[secValDictOffs], raw[secValDictBytes], what)
	if err != nil {
		return nil, err
	}
	nTags, nVals := tags.size(), vals.size()

	// Validate shard-wide invariants once: directory entries stay inside
	// the postings and dictionaries, columns stay inside the dictionaries.
	for _, e := range tagDir {
		if int(e.id) >= nTags || uint64(e.off)+uint64(e.n) > uint64(len(tagPost)) {
			return nil, fmt.Errorf("%w: %s tag directory entry out of bounds", ErrSnapshotCorrupt, what)
		}
	}
	for _, e := range valDir {
		if int(e.id) >= nVals || uint64(e.off)+uint64(e.n) > uint64(len(valPost)) {
			return nil, fmt.Errorf("%w: %s value directory entry out of bounds", ErrSnapshotCorrupt, what)
		}
	}
	for _, r := range statRecs {
		if int(r.Tag) >= nTags {
			return nil, fmt.Errorf("%w: %s statistics name tag %d of %d", ErrSnapshotCorrupt, what, r.Tag, nTags)
		}
	}
	for _, pairs := range [][]pairRec{childPairs, descPairs} {
		for _, p := range pairs {
			if int(p.Up) >= nTags || int(p.Down) >= nTags {
				return nil, fmt.Errorf("%w: %s statistics pair names tag (%d, %d) of %d", ErrSnapshotCorrupt, what, p.Up, p.Down, nTags)
			}
		}
	}

	names := raw[secNames]
	docs := make([]*Doc, 0, len(recs))
	for di, rec := range recs {
		base, n := uint64(rec.Base), uint64(rec.Nodes)
		if n == 0 || base+n > uint64(rows) {
			return nil, fmt.Errorf("%w: %s doc %d rows [%d, %d) of %d", ErrSnapshotCorrupt, what, di, base, base+n, rows)
		}
		if uint64(rec.NameOff)+uint64(rec.NameLen) > uint64(len(names)) {
			return nil, fmt.Errorf("%w: %s doc %d name out of bounds", ErrSnapshotCorrupt, what, di)
		}
		if uint64(rec.TagDirOff)+uint64(rec.TagDirN) > uint64(len(tagDir)) ||
			uint64(rec.ValDirOff)+uint64(rec.ValDirN) > uint64(len(valDir)) {
			return nil, fmt.Errorf("%w: %s doc %d directory span out of bounds", ErrSnapshotCorrupt, what, di)
		}
		if uint64(rec.TSOff)+uint64(rec.TSN) > uint64(len(statRecs)) ||
			uint64(rec.CPOff)+uint64(rec.CPN) > uint64(len(childPairs)) ||
			uint64(rec.DPOff)+uint64(rec.DPN) > uint64(len(descPairs)) {
			return nil, fmt.Errorf("%w: %s doc %d statistics span out of bounds", ErrSnapshotCorrupt, what, di)
		}
		if int(rec.RootTag) >= nTags {
			return nil, fmt.Errorf("%w: %s doc %d root tag out of bounds", ErrSnapshotCorrupt, what, di)
		}
		version := uint64(rec.Res0)
		if version == 0 {
			version = 1 // snapshot written before document versions existed
		}
		d := &Doc{
			name:    string(names[rec.NameOff : rec.NameOff+rec.NameLen]),
			shard:   wantShard,
			version: version,
			c: cols{
				start:      start[base : base+n],
				end:        end[base : base+n],
				level:      level[base : base+n],
				parent:     parent[base : base+n],
				firstChild: first[base : base+n],
				kind:       kind[base : base+n],
				tag:        tagCol[base : base+n],
				val:        valCol[base : base+n],
			},
			tagDir:  tagDir[rec.TagDirOff : rec.TagDirOff+rec.TagDirN],
			valDir:  valDir[rec.ValDirOff : rec.ValDirOff+rec.ValDirN],
			tagPost: tagPost,
			valPost: valPost,
			tags:    tags,
			vals:    vals,
		}
		// Per-node structural bounds: nothing an accessor indexes with may
		// escape the document, whatever the file claims.
		nn := int32(n)
		for i := int32(0); i < nn; i++ {
			if d.c.start[i] != i ||
				d.c.end[i] < i || d.c.end[i] >= nn ||
				d.c.parent[i] < -1 || d.c.parent[i] >= nn ||
				d.c.firstChild[i] < -1 || d.c.firstChild[i] >= nn ||
				d.c.level[i] < 0 ||
				int(d.c.tag[i]) >= nTags ||
				int(d.c.val[i]) > nVals {
				return nil, fmt.Errorf("%w: %s doc %d node %d fails bounds checks", ErrSnapshotCorrupt, what, di, i)
			}
		}
		// The statistics are views of the flat records, which lookups
		// binary-search and splices merge into: they must be sorted.
		d.stats = &docStats{
			rootTag: rec.RootTag,
			nodes:   int(n),
			depth:   rec.Depth,
			tags:    statRecs[rec.TSOff : rec.TSOff+rec.TSN : rec.TSOff+rec.TSN],
			child:   childPairs[rec.CPOff : rec.CPOff+rec.CPN : rec.CPOff+rec.CPN],
			desc:    descPairs[rec.DPOff : rec.DPOff+rec.DPN : rec.DPOff+rec.DPN],
		}
		if !slices.IsSortedFunc(d.stats.tags, cmpTagStat) ||
			!slices.IsSortedFunc(d.stats.child, cmpPair) || !slices.IsSortedFunc(d.stats.desc, cmpPair) {
			return nil, fmt.Errorf("%w: %s doc %d statistics out of order", ErrSnapshotCorrupt, what, di)
		}
		docs = append(docs, d)
	}
	return docs, nil
}

// decodeDict rebuilds a frozen dictionary whose offsets and strings are
// views into the mapped file.
func decodeDict(offsRaw, blob []byte, what string) (*dict, error) {
	offs, err := rawView[uint32](offsRaw)
	if err != nil {
		return nil, err
	}
	if len(offs) == 0 {
		return newDict(), nil
	}
	n := len(offs) - 1
	if uint64(offs[n]) != uint64(len(blob)) {
		return nil, fmt.Errorf("%w: %s dictionary blob length %d, offsets end at %d", ErrSnapshotCorrupt, what, len(blob), offs[n])
	}
	for i := 0; i < n; i++ {
		if offs[i] > offs[i+1] {
			return nil, fmt.Errorf("%w: %s dictionary offsets not monotonic at %d", ErrSnapshotCorrupt, what, i)
		}
	}
	return newFrozenDict(offs, blob), nil
}

// LoadSnapshot opens the snapshot directory and adds every document it
// contains to the store. The snapshot's shard count must equal the
// store's (DocIDs and shard routing are shard-count dependent); loading a
// document name that is already present is an error. On any error the
// store is unchanged.
func (s *Store) LoadSnapshot(dir string) error {
	if s.pinned {
		return fmt.Errorf("store: load snapshot into a pinned (read-only) view")
	}
	// A load while a mutation is being built would race the directory
	// rewrite against the splice's version chain; reject it up front (and
	// again under loadMu, where the check is authoritative).
	if s.writers.Load() != 0 {
		return fmt.Errorf("store: load snapshot %s: %w", dir, ErrConcurrentMutation)
	}
	maniData, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return fmt.Errorf("store: open snapshot: %w", err)
	}
	shardCount, snapGen, entries, err := decodeManifest(maniData)
	if err != nil {
		return fmt.Errorf("store: open snapshot %s: %w", dir, err)
	}
	if shardCount != len(s.shards) {
		return fmt.Errorf("%w: snapshot has %d shards, store has %d", ErrSnapshotMismatch, shardCount, len(s.shards))
	}

	// Which shards hold documents, and in what per-shard order.
	perShard := make([][]string, shardCount)
	for _, e := range entries {
		perShard[e.shard] = append(perShard[e.shard], e.name)
	}

	var maps []*mapping
	cleanup := func() {
		for _, m := range maps {
			m.close()
		}
	}
	byName := make(map[string]*Doc, len(entries))
	for i, names := range perShard {
		if len(names) == 0 {
			continue
		}
		m, err := openMapping(filepath.Join(dir, shardFileName(i)))
		if err != nil {
			cleanup()
			return fmt.Errorf("store: open snapshot shard %d: %w", i, err)
		}
		maps = append(maps, m)
		docs, err := decodeShard(m.data, i, shardCount)
		if err != nil {
			cleanup()
			return fmt.Errorf("store: open snapshot %s: %w", dir, err)
		}
		if len(docs) != len(names) {
			cleanup()
			return fmt.Errorf("%w: shard %d holds %d documents, manifest lists %d", ErrSnapshotCorrupt, i, len(docs), len(names))
		}
		for j, d := range docs {
			if d.name != names[j] {
				cleanup()
				return fmt.Errorf("%w: shard %d doc %d is %q, manifest lists %q", ErrSnapshotCorrupt, i, j, d.name, names[j])
			}
			byName[d.name] = d
		}
	}
	if len(byName) != len(entries) {
		cleanup()
		return fmt.Errorf("%w: snapshot lists %d documents, shards hold %d (duplicate names?)", ErrSnapshotCorrupt, len(entries), len(byName))
	}

	// Publish all documents in manifest (global load) order under one
	// directory swap.
	s.loadMu.Lock()
	defer s.loadMu.Unlock()
	if s.writers.Load() != 0 {
		cleanup()
		return fmt.Errorf("store: load snapshot %s: %w", dir, ErrConcurrentMutation)
	}
	old := s.dir.Load()
	for _, e := range entries {
		if _, dup := old.byName[e.name]; dup {
			cleanup()
			return fmt.Errorf("%w: document %q already loaded", ErrSnapshotMismatch, e.name)
		}
	}
	next := &directory{
		docs:   make([]*Doc, len(old.docs), len(old.docs)+len(entries)),
		byName: make(map[string]DocID, len(old.byName)+len(entries)),
	}
	copy(next.docs, old.docs)
	for k, v := range old.byName {
		next.byName[k] = v
	}
	for _, e := range entries {
		d := byName[e.name]
		id := DocID(len(next.docs))
		d.id = id
		next.docs = append(next.docs, d)
		next.byName[d.name] = id
		s.shards[d.shard].docs = append(s.shards[d.shard].docs, id)
	}
	s.dir.Store(next)
	// Carry the snapshot's update generation forward so a later snapshot
	// of this store never reports an older generation than its source.
	s.updateGen.Store(max(s.updateGen.Load(), snapGen))
	for _, m := range maps {
		s.mappedBytes.Add(int64(len(m.data)))
	}
	s.maps = append(s.maps, maps...)
	return nil
}

// SnapshotExists reports whether dir holds a complete snapshot: the
// manifest is written last, so its presence implies the shard files it
// references were fully written.
func SnapshotExists(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, manifestName))
	return err == nil
}

// OpenSnapshot creates a store with the snapshot's shard count and loads
// the snapshot into it.
func OpenSnapshot(dir string) (*Store, error) {
	maniData, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, fmt.Errorf("store: open snapshot: %w", err)
	}
	shardCount, _, _, err := decodeManifest(maniData)
	if err != nil {
		return nil, fmt.Errorf("store: open snapshot %s: %w", dir, err)
	}
	s := NewSharded(shardCount)
	if err := s.LoadSnapshot(dir); err != nil {
		return nil, err
	}
	return s, nil
}
