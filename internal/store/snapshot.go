package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"os"
	"path/filepath"
	"unsafe"

	"tlc/internal/xmltree"
)

// This file implements the persistent snapshot format of the columnar
// store. A snapshot is a directory of one data file plus a manifest:
//
//	snapdir/
//	  manifest.tlcm     document names in DocID order
//	  data.tlcs         stored columns and dictionaries
//
// Every file is a 40-byte header followed by a checksummed payload:
//
//	[0:8)   magic ("TLCSNAP1" / "TLCMANI1")
//	[8:12)  format version (3)
//	[12:16) byte-order marker 0x01020304, written in native order
//	[16:20) document count
//	[20:24) update generation (manifest; 0 in the data file)
//	[24:32) payload length
//	[32:40) CRC-64/ECMA of the payload
//
// Version 1 partitioned the data across several files and carried the
// partition index and count in its header; version 2 also stored the start,
// first-child, parent and level columns, the postings indexes and the
// catalog. Both are refused with ErrSnapshotVersion. The update generation
// records how many mutations had been committed into the store when the
// snapshot was written. SnapshotUpdateGen reads it back without decoding
// the payload; comparing it against Store.UpdateGeneration detects a
// snapshot that has gone stale relative to a store that kept taking writes.
// Each document record carries its MVCC version, so a snapshot written
// after updates round-trips the version chain.
//
// A snapshot persists only what cannot be derived. The data payload opens
// with a fixed section table (10 entries of {offset, length}, offsets
// 8-byte aligned) locating the document records, the document names, four
// node columns — end, kind, tag and val — and the two dictionaries, each an
// offsets array plus a string blob. Documents lie end to end in DocID
// order: a record holds a document's node count, name length and version,
// and its rows and name follow the previous document's. Integer sections
// are written in native byte order; the order marker rejects a snapshot
// from a platform with the opposite endianness instead of misreading it.
//
// Opening a snapshot maps the file and views the four columns and the
// dictionaries in place — no per-node decoding — then derives the rest of
// each document: parent and level in one pass over end (nest), which
// is also the check that the intervals nest into one tree, and then the
// postings indexes with the builder load uses (derive).
// Every value an accessor indexes with is range-checked before anything
// reads it, so a file that passes its checksum but was not written by this
// code fails with ErrSnapshotCorrupt, never a panic.
//
// Writes are atomic: each file is assembled in memory, written to a .tmp
// name and renamed into place; the manifest is written last, so a crash
// mid-snapshot leaves no manifest and the snapshot is simply absent.
//
// Opened snapshots are backed by mmap where available (mmap_unix.go) with
// a plain read-into-memory fallback elsewhere (mmap_other.go). The four
// stored columns and the dictionary strings are zero-copy views into the
// mapping; they remain valid until Store.Close, which is the only point the
// mapping is unmapped.

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
	// incompatible with the target store (a document name already loaded).
	ErrSnapshotMismatch = errors.New("store: snapshot mismatch")
)

const (
	snapMagic   = "TLCSNAP1"
	maniMagic   = "TLCMANI1"
	snapVersion = 3
	orderMarker = 0x01020304

	headerSize  = 40
	numSections = 10

	manifestName = "manifest.tlcm"
	dataName     = "data.tlcs"
)

// Section indexes of the data payload.
const (
	secDocs = iota
	secNames
	secEnd
	secKind
	secTag
	secVal
	secTagDictOffs
	secTagDictBytes
	secValDictOffs
	secValDictBytes
)

// docRec is the per-document record of the data file. A document's rows
// and name follow the previous document's in their sections.
type docRec struct {
	Nodes, NameLen, Version uint32
}

var crcTable = crc64.MakeTable(crc64.ECMA)

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

// putHeader prepends the 40-byte header for a payload. updateGen is 0 in
// the data file.
func putHeader(magic string, docCount, updateGen uint32, payload []byte) []byte {
	out := make([]byte, headerSize, headerSize+len(payload))
	copy(out[0:8], magic)
	binary.NativeEndian.PutUint32(out[8:], snapVersion)
	binary.NativeEndian.PutUint32(out[12:], orderMarker)
	binary.NativeEndian.PutUint32(out[16:], docCount)
	binary.NativeEndian.PutUint32(out[20:], updateGen)
	binary.NativeEndian.PutUint64(out[24:], uint64(len(payload)))
	binary.NativeEndian.PutUint64(out[32:], crc64.Checksum(payload, crcTable))
	return append(out, payload...)
}

// header is the decoded common file header.
type header struct {
	docCount, updateGen uint32
	payload             []byte
}

// parseHeader validates a file's header and checksum and returns the
// payload view.
func parseHeader(data []byte, magic, what string) (header, error) {
	var h header
	// Magic and version come first: they fit in any header a version of
	// this format ever wrote, so a snapshot of another version is named as
	// such rather than misread as truncated.
	if len(data) < 16 {
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
	if len(data) < headerSize {
		return h, fmt.Errorf("%w: %s truncated (%d bytes)", ErrSnapshotCorrupt, what, len(data))
	}
	h.docCount = binary.NativeEndian.Uint32(data[16:])
	h.updateGen = binary.NativeEndian.Uint32(data[20:])
	plen := binary.NativeEndian.Uint64(data[24:])
	if plen != uint64(len(data)-headerSize) {
		return h, fmt.Errorf("%w: %s payload length %d, file has %d", ErrSnapshotCorrupt, what, plen, len(data)-headerSize)
	}
	h.payload = data[headerSize:]
	if sum := crc64.Checksum(h.payload, crcTable); sum != binary.NativeEndian.Uint64(data[32:]) {
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
	// UpdateGen is the update generation captured in the manifest — the
	// watermark below which WAL records are covered by this snapshot.
	UpdateGen uint64
}

// WriteSnapshot captures the current contents of the store into dir (the
// data file, then the manifest, each written atomically; the manifest
// last, so an interrupted snapshot is absent rather than partial). It may
// run concurrently with queries and loads: it writes the directory state
// current when it starts.
func (s *Store) WriteSnapshot(dir string) (SnapshotInfo, error) {
	info := SnapshotInfo{Dir: dir}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return info, fmt.Errorf("store: snapshot: %w", err)
	}
	// Capture a consistent (directory, update generation) pair.
	s.loadMu.Lock()
	d := s.dir.Load()
	updateGen := s.updateGen.Load()
	s.loadMu.Unlock()
	info.UpdateGen = updateGen

	file := putHeader(snapMagic, uint32(len(d.docs)), 0, encodeData(d.docs))
	if err := writeAtomic(filepath.Join(dir, dataName), file); err != nil {
		return info, fmt.Errorf("store: snapshot data: %w", err)
	}
	info.Bytes += int64(len(file))

	file = putHeader(maniMagic, uint32(len(d.docs)), uint32(updateGen), encodeManifest(d))
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

// encodeData flattens the documents into one payload.
func encodeData(docs []*Doc) []byte {
	var (
		recs           []docRec
		names          []byte
		end            []int32
		kind           []uint8
		tagCol, valCol []uint32
	)
	tagW, valW := newDictWriter(), newDictWriter()
	tagMaps := tagW.remapAll(docs, func(d *Doc) (*dict, []dirEntry) { return d.tags, d.tagDir })
	valMaps := valW.remapAll(docs, func(d *Doc) (*dict, []dirEntry) { return d.vals, d.valDir })

	for _, doc := range docs {
		rt, rv := tagMaps[doc.tags], valMaps[doc.vals]
		recs = append(recs, docRec{Nodes: uint32(doc.Len()), NameLen: uint32(len(doc.name)), Version: uint32(doc.version)})
		names = append(names, doc.name...)
		end = append(end, doc.c.end...)
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
	}

	tagOffs, tagBytes := tagW.encode()
	valOffs, valBytes := valW.encode()

	a := newAssembler()
	a.add(rawBytes(recs))    // secDocs
	a.add(names)             // secNames
	a.add(rawBytes(end))     // secEnd
	a.add(kind)              // secKind
	a.add(rawBytes(tagCol))  // secTag
	a.add(rawBytes(valCol))  // secVal
	a.add(rawBytes(tagOffs)) // secTagDictOffs
	a.add(tagBytes)          // secTagDictBytes
	a.add(rawBytes(valOffs)) // secValDictOffs
	a.add(valBytes)          // secValDictBytes
	return a.finish()
}

// encodeManifest lists the document names in DocID order.
func encodeManifest(d *directory) []byte {
	var buf []byte
	for _, doc := range d.docs {
		buf = binary.NativeEndian.AppendUint32(buf, uint32(len(doc.name)))
		buf = append(buf, doc.name...)
	}
	return buf
}

func decodeManifest(data []byte) (updateGen uint64, names []string, err error) {
	h, err := parseHeader(data, maniMagic, "manifest")
	if err != nil {
		return 0, nil, err
	}
	p := h.payload
	for i := uint32(0); i < h.docCount; i++ {
		if len(p) < 4 {
			return 0, nil, fmt.Errorf("%w: manifest truncated at entry %d", ErrSnapshotCorrupt, i)
		}
		nameLen := binary.NativeEndian.Uint32(p)
		p = p[4:]
		if uint64(nameLen) > uint64(len(p)) {
			return 0, nil, fmt.Errorf("%w: manifest entry %d name overruns payload", ErrSnapshotCorrupt, i)
		}
		names = append(names, string(p[:nameLen]))
		p = p[nameLen:]
	}
	if len(p) != 0 {
		return 0, nil, fmt.Errorf("%w: manifest has %d trailing bytes", ErrSnapshotCorrupt, len(p))
	}
	return uint64(h.updateGen), names, nil
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
	return uint64(h.updateGen), nil
}

// sectionView locates one section of a payload.
func sectionView(payload []byte, secs []section, i int) ([]byte, error) {
	s := secs[i]
	if s.off%8 != 0 || s.off > uint64(len(payload)) || s.n > uint64(len(payload))-s.off {
		return nil, fmt.Errorf("%w: section %d spans [%d, %d) of %d", ErrSnapshotCorrupt, i, s.off, s.off+s.n, len(payload))
	}
	return payload[s.off : s.off+s.n : s.off+s.n], nil
}

// decodeData turns the mapped data file into documents, in DocID order:
// the stored columns and the dictionaries are views into data, the parent
// and level columns and postings are derived. The returned Docs
// have no DocID assigned yet (the load decides that).
func decodeData(data []byte) ([]*Doc, error) {
	const what = dataName
	h, err := parseHeader(data, snapMagic, what)
	if err != nil {
		return nil, err
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
	end, err1 := rawView[int32](raw[secEnd])
	tagCol, err2 := rawView[uint32](raw[secTag])
	valCol, err3 := rawView[uint32](raw[secVal])
	if err := errors.Join(err1, err2, err3); err != nil {
		return nil, err
	}
	kind := raw[secKind]
	rows := uint64(len(end))
	if uint64(len(kind)) != rows || uint64(len(tagCol)) != rows || uint64(len(valCol)) != rows {
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

	names := raw[secNames]
	docs := make([]*Doc, 0, len(recs))
	var base, nameOff uint64
	for di, rec := range recs {
		n, nameEnd := uint64(rec.Nodes), nameOff+uint64(rec.NameLen)
		if n == 0 || base+n > rows {
			return nil, fmt.Errorf("%w: %s doc %d rows [%d, %d) of %d", ErrSnapshotCorrupt, what, di, base, base+n, rows)
		}
		if nameEnd > uint64(len(names)) {
			return nil, fmt.Errorf("%w: %s doc %d name out of bounds", ErrSnapshotCorrupt, what, di)
		}
		if rec.Version == 0 {
			return nil, fmt.Errorf("%w: %s doc %d has version 0", ErrSnapshotCorrupt, what, di)
		}
		d := &Doc{
			name:    string(names[nameOff:nameEnd]),
			version: uint64(rec.Version),
			c: cols{
				end:    end[base : base+n : base+n],
				level:  make([]int32, n),
				parent: make([]int32, n),
				kind:   kind[base : base+n : base+n],
				tag:    tagCol[base : base+n : base+n],
				val:    valCol[base : base+n : base+n],
			},
			tags: tags,
			vals: vals,
			life: new(lifetime),
		}
		if err := nest(d.c.end, d.c.parent, d.c.level); err != nil {
			return nil, fmt.Errorf("%w: %s doc %d: %v", ErrSnapshotCorrupt, what, di, err)
		}
		if i := d.badNode(); i >= 0 {
			return nil, fmt.Errorf("%w: %s doc %d node %d fails bounds checks", ErrSnapshotCorrupt, what, di, i)
		}
		derive(d)
		docs = append(docs, d)
		base, nameOff = base+n, nameEnd
	}
	if base != rows || nameOff != uint64(len(names)) {
		return nil, fmt.Errorf("%w: %s records cover %d of %d rows and %d of %d name bytes", ErrSnapshotCorrupt, what, base, rows, nameOff, len(names))
	}
	return docs, nil
}

// badNode returns the first node whose stored fields an accessor could not
// read — a kind outside the three, a dictionary ID outside its dictionary,
// an attribute or text node with children or without a value, an attribute
// tag too short to carry its "@", a root that is not an element — or -1.
func (d *Doc) badNode() int32 {
	nTags, nVals := uint32(d.tags.size()), uint32(d.vals.size())
	for i := range int32(d.Len()) {
		k, t, v := xmltree.Kind(d.c.kind[i]), d.c.tag[i], d.c.val[i]
		if k > xmltree.Text || t >= nTags || v > nVals ||
			k != xmltree.Element && (d.c.end[i] != i || v == 0 || i == 0) ||
			k == xmltree.Attribute && d.tags.str(t) == "" {
			return i
		}
	}
	return -1
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
// contains to the store, after the documents already loaded; loading a
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
	snapGen, names, err := decodeManifest(maniData)
	if err != nil {
		return fmt.Errorf("store: open snapshot %s: %w", dir, err)
	}
	m, err := openMapping(filepath.Join(dir, dataName))
	if err != nil {
		return fmt.Errorf("store: open snapshot data: %w", err)
	}
	fail := func(err error) error {
		m.close()
		return err
	}
	docs, err := decodeData(m.data)
	if err != nil {
		return fail(fmt.Errorf("store: open snapshot %s: %w", dir, err))
	}
	if len(docs) != len(names) {
		return fail(fmt.Errorf("%w: data file holds %d documents, manifest lists %d", ErrSnapshotCorrupt, len(docs), len(names)))
	}
	seen := make(map[string]bool, len(docs))
	for i, d := range docs {
		if d.name != names[i] {
			return fail(fmt.Errorf("%w: doc %d is %q, manifest lists %q", ErrSnapshotCorrupt, i, d.name, names[i]))
		}
		if seen[d.name] {
			return fail(fmt.Errorf("%w: document %q listed twice", ErrSnapshotCorrupt, d.name))
		}
		seen[d.name] = true
	}

	// Publish all documents in manifest order under one directory swap.
	s.loadMu.Lock()
	defer s.loadMu.Unlock()
	if s.writers.Load() != 0 {
		return fail(fmt.Errorf("store: load snapshot %s: %w", dir, ErrConcurrentMutation))
	}
	old := s.dir.Load()
	for _, d := range docs {
		if _, dup := old.byName[d.name]; dup {
			return fail(fmt.Errorf("%w: document %q already loaded", ErrSnapshotMismatch, d.name))
		}
	}
	next := &directory{
		docs:   make([]*Doc, len(old.docs), len(old.docs)+len(docs)),
		byName: make(map[string]DocID, len(old.byName)+len(docs)),
	}
	copy(next.docs, old.docs)
	for k, v := range old.byName {
		next.byName[k] = v
	}
	for _, d := range docs {
		d.id = DocID(len(next.docs))
		next.docs = append(next.docs, d)
		next.byName[d.name] = d.id
	}
	s.dir.Store(next)
	// Carry the snapshot's update generation forward so a later snapshot
	// of this store never reports an older generation than its source.
	s.updateGen.Store(max(s.updateGen.Load(), snapGen))
	s.mappedBytes.Add(int64(len(m.data)))
	s.maps = append(s.maps, m)
	return nil
}

// SnapshotExists reports whether dir holds a complete snapshot: the
// manifest is written last, so its presence implies the data file was
// fully written.
func SnapshotExists(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, manifestName))
	return err == nil
}

// OpenSnapshot creates a store and loads the snapshot into it.
func OpenSnapshot(dir string) (*Store, error) {
	s := New()
	if err := s.LoadSnapshot(dir); err != nil {
		return nil, err
	}
	return s, nil
}
