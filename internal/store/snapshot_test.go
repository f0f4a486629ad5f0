package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tlc/internal/xmark"
	"tlc/internal/xmltree"
)

// snapDocs is a small multi-document corpus with enough variety to cover
// every column: attributes, text, empty elements, repeated tags and
// values, and content that needs XML escaping.
var snapDocs = map[string]string{
	"auction.xml": sampleXML,
	"catalog.xml": `<catalog><item sku="a&lt;1"><name>Widget &amp; Co</name><price>3</price></item>` +
		`<item sku="b2"><name></name><price>3</price></item><empty/></catalog>`,
	"notes.xml": `<notes lang="en"><note>first</note><note>second</note><note>first</note></notes>`,
}

func loadSnapDocs(t testing.TB, s *Store) *Store {
	t.Helper()
	for _, name := range []string{"auction.xml", "catalog.xml", "notes.xml"} {
		if _, err := s.LoadXML(name, strings.NewReader(snapDocs[name])); err != nil {
			t.Fatalf("LoadXML(%s): %v", name, err)
		}
	}
	return s
}

// requireSameDoc asserts the snapshot-opened document view is byte- and
// structure-identical to the heap-built one: every column, every string,
// the serialized XML, and the index postings.
func requireSameDoc(t *testing.T, want, got *Doc) {
	t.Helper()
	if got.Name() != want.Name() {
		t.Fatalf("name = %q, want %q", got.Name(), want.Name())
	}
	if got.Len() != want.Len() {
		t.Fatalf("%s: len = %d, want %d", want.Name(), got.Len(), want.Len())
	}
	for i := int32(0); i < int32(want.Len()); i++ {
		if got.Start(i) != want.Start(i) || got.End(i) != want.End(i) ||
			got.Level(i) != want.Level(i) || got.Parent(i) != want.Parent(i) ||
			got.FirstChild(i) != want.FirstChild(i) || got.Kind(i) != want.Kind(i) {
			t.Fatalf("%s node %d: structural columns differ", want.Name(), i)
		}
		if got.Tag(i) != want.Tag(i) {
			t.Fatalf("%s node %d: tag %q, want %q", want.Name(), i, got.Tag(i), want.Tag(i))
		}
		if got.Value(i) != want.Value(i) {
			t.Fatalf("%s node %d: value %q, want %q", want.Name(), i, got.Value(i), want.Value(i))
		}
		if got.Content(i) != want.Content(i) {
			t.Fatalf("%s node %d: content %q, want %q", want.Name(), i, got.Content(i), want.Content(i))
		}
	}
	if gx, wx := got.XML(got.Root()), want.XML(want.Root()); gx != wx {
		t.Fatalf("%s: XML differs\nwant: %s\ngot:  %s", want.Name(), wx, gx)
	}
	// Index parity, probed through every tag and value in the document.
	for i := int32(0); i < int32(want.Len()); i++ {
		tag := want.Tag(i)
		if tag != "" {
			g, w := got.tagRefsByName(tag), want.tagRefsByName(tag)
			if fmt.Sprint(g) != fmt.Sprint(w) {
				t.Fatalf("%s: tagRefs(%q) = %v, want %v", want.Name(), tag, g, w)
			}
		}
		if v := want.Value(i); v != "" || want.Kind(i) != 0 {
			g, w := got.valueRefsByName(v), want.valueRefsByName(v)
			if fmt.Sprint(g) != fmt.Sprint(w) {
				t.Fatalf("%s: valueRefs(%q) = %v, want %v", want.Name(), v, g, w)
			}
		}
	}
}

// TestSnapshotRoundTrip: write a snapshot of a populated store, open it
// into a fresh store, and require byte-identical documents and indexes.
// The shards=4 case builds its store with NewSharded(4), which
// ignores its argument: it keeps checking that for as long as it exists.
func TestSnapshotRoundTrip(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			src := loadSnapDocs(t, NewSharded(shards))
			dir := t.TempDir()
			info, err := src.WriteSnapshot(dir)
			if err != nil {
				t.Fatalf("WriteSnapshot: %v", err)
			}
			if info.Docs != 3 {
				t.Fatalf("info.Docs = %d, want 3", info.Docs)
			}
			if info.Bytes <= 0 {
				t.Fatalf("implausible snapshot info: %+v", info)
			}

			snap, err := OpenSnapshot(dir)
			if err != nil {
				t.Fatalf("OpenSnapshot: %v", err)
			}
			defer snap.Close()

			for _, name := range []string{"auction.xml", "catalog.xml", "notes.xml"} {
				wid, ok := src.Lookup(name)
				if !ok {
					t.Fatalf("source lost %s", name)
				}
				gid, ok := snap.Lookup(name)
				if !ok {
					t.Fatalf("snapshot store has no %s", name)
				}
				requireSameDoc(t, src.Doc(wid), snap.Doc(gid))
				// Everything open derives: parent and level, and postings.
				wd, gd := src.Doc(wid), snap.Doc(gid)
				if got, want := gd.Fingerprint(), wd.Fingerprint(); got != want {
					t.Fatalf("%s: reopened fingerprint differs\n--- opened ---\n%s\n--- live ---\n%s", name, got, want)
				}
			}
		})
	}
}

// TestSnapshotWriteIdempotent: snapshotting the same store twice produces
// byte-identical files — the format has no nondeterminism (map iteration
// is sorted out before encoding).
func TestSnapshotWriteIdempotent(t *testing.T) {
	s := loadSnapDocs(t, New())
	d1, d2 := t.TempDir(), t.TempDir()
	if _, err := s.WriteSnapshot(d1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.WriteSnapshot(d2); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(d1, "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("glob: %v (%d files)", err, len(files))
	}
	for _, f := range files {
		b1, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		b2, err := os.ReadFile(filepath.Join(d2, filepath.Base(f)))
		if err != nil {
			t.Fatal(err)
		}
		if string(b1) != string(b2) {
			t.Errorf("%s differs between runs", filepath.Base(f))
		}
	}
}

// snapshotDataFile returns the path of the data file in dir.
func snapshotDataFile(dir string) string { return filepath.Join(dir, dataName) }

// TestSnapshotTruncated: a truncated data file is a typed corruption
// error, not a panic.
func TestSnapshotTruncated(t *testing.T) {
	s := loadSnapDocs(t, New())
	dir := t.TempDir()
	if _, err := s.WriteSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	path := snapshotDataFile(dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, keep := range []int{0, 7, headerSize - 1, headerSize, len(data) - 1} {
		if err := os.WriteFile(path, data[:keep], 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := OpenSnapshot(dir)
		if err == nil {
			t.Fatalf("truncation to %d bytes: no error", keep)
		}
		if !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("truncation to %d bytes: err = %v, want ErrSnapshotCorrupt", keep, err)
		}
	}
}

// TestSnapshotBadChecksum: a flipped payload byte fails the CRC with the
// typed checksum error.
func TestSnapshotBadChecksum(t *testing.T) {
	s := loadSnapDocs(t, New())
	dir := t.TempDir()
	if _, err := s.WriteSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	path := snapshotDataFile(dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[headerSize+len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = OpenSnapshot(dir)
	if !errors.Is(err, ErrSnapshotChecksum) {
		t.Fatalf("err = %v, want ErrSnapshotChecksum", err)
	}
}

// TestSnapshotVersionSkew: a future format version is rejected with the
// typed version error before any payload is touched.
func TestSnapshotVersionSkew(t *testing.T) {
	s := loadSnapDocs(t, New())
	dir := t.TempDir()
	if _, err := s.WriteSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	path := snapshotDataFile(dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[8]++ // version field, first byte in either byte order
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = OpenSnapshot(dir)
	if !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("err = %v, want ErrSnapshotVersion", err)
	}
}

// TestSnapshotByteFlipsNeverPanic sweeps single-byte corruptions across
// the whole data file: every flip must produce either a typed error or
// (for bytes the format ignores) a clean open — never a panic. Payload
// flips are always caught by the checksum; header flips by the field
// validation.
func TestSnapshotByteFlipsNeverPanic(t *testing.T) {
	s := loadSnapDocs(t, New())
	dir := t.TempDir()
	if _, err := s.WriteSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	path := snapshotDataFile(dir)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	step := len(orig)/128 + 1
	for off := 0; off < len(orig); off += step {
		data := append([]byte(nil), orig...)
		data[off] ^= 0xA5
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("byte flip at %d: panic: %v", off, r)
				}
			}()
			if st, err := OpenSnapshot(dir); err == nil {
				st.Close()
			}
		}()
	}
}

// parentHeader frames a payload the way format version 1 did: a 48-byte
// header whose words [16:24) held a partition index and count, ahead of
// the document count, update generation, payload length and checksum.
func parentHeader(magic string, payload []byte) []byte {
	h := make([]byte, 48, 48+len(payload))
	copy(h, magic)
	binary.NativeEndian.PutUint32(h[8:], 1)
	binary.NativeEndian.PutUint32(h[12:], orderMarker)
	binary.NativeEndian.PutUint32(h[20:], 1)
	binary.NativeEndian.PutUint64(h[32:], uint64(len(payload)))
	binary.NativeEndian.PutUint64(h[40:], crc64.Checksum(payload, crcTable))
	return append(h, payload...)
}

// TestSnapshotParentVersion: a snapshot written in an earlier format
// version is refused with the version error — not read as corrupt, and
// never a panic — whether its manifest or its data file carries the old
// header. Version 1 had a 48-byte header; version 2 had this 40-byte one,
// with 2 in its version word.
func TestSnapshotParentVersion(t *testing.T) {
	versions := []struct {
		name  string
		frame func(file []byte) []byte
	}{
		{"v1", func(file []byte) []byte { return parentHeader(string(file[:8]), file[headerSize:]) }},
		{"v2", func(file []byte) []byte {
			binary.NativeEndian.PutUint32(file[8:], 2)
			return reseal(file)
		}},
	}
	for _, name := range []string{manifestName, dataName} {
		t.Run(name, func(t *testing.T) {
			for _, version := range versions {
				dir := t.TempDir()
				if _, err := loadSnapDocs(t, New()).WriteSnapshot(dir); err != nil {
					t.Fatal(err)
				}
				path := filepath.Join(dir, name)
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, version.frame(data), 0o644); err != nil {
					t.Fatal(err)
				}
				_, err = OpenSnapshot(dir)
				if !errors.Is(err, ErrSnapshotVersion) || errors.Is(err, ErrSnapshotCorrupt) {
					t.Fatalf("%s: err = %v, want ErrSnapshotVersion only", version.name, err)
				}
			}
		})
	}
}

// reseal recomputes the checksum of a snapshot file after an edit, so the
// edit reaches the decoder instead of the CRC check.
func reseal(file []byte) []byte {
	binary.NativeEndian.PutUint64(file[32:], crc64.Checksum(file[headerSize:], crcTable))
	return file
}

// fileSection returns section i of a snapshot data file: a view that edits
// write through.
func fileSection(file []byte, i int) []byte {
	p := file[headerSize:]
	off := binary.NativeEndian.Uint64(p[i*16:])
	n := binary.NativeEndian.Uint64(p[i*16+8:])
	return p[off : off+n]
}

// TestSnapshotResealedCorruption: a data file that passes its checksum but
// holds values this code never writes is refused with ErrSnapshotCorrupt,
// never a panic and never an open that a later read trips over. Each edit
// is made to the first document (sampleXML) and resealed with a fresh CRC.
func TestSnapshotResealedCorruption(t *testing.T) {
	src := loadSnapDocs(t, New())
	dir := t.TempDir()
	if _, err := src.WriteSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	path := snapshotDataFile(dir)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if s, err := OpenSnapshot(dir); err != nil {
		t.Fatalf("unedited: %v", err)
	} else {
		s.Close()
	}
	d := src.Doc(0)
	n := int32(d.Len())
	// A node whose parent ends before the document does, and a text node.
	inner, text := int32(-1), int32(-1)
	for i := int32(1); i < n; i++ {
		if p := d.Parent(i); inner < 0 && p > 0 && d.End(p) < n-1 {
			inner = i
		}
		if text < 0 && d.Kind(i) == xmltree.Text {
			text = i
		}
	}
	if inner < 0 || text < 0 {
		t.Fatal("sampleXML has no nested node or no text node")
	}
	put := func(file []byte, sec int, i int32, v uint32) {
		binary.NativeEndian.PutUint32(fileSection(file, sec)[4*i:], v)
	}
	word := func(file []byte, sec int, i int32) uint32 {
		return binary.NativeEndian.Uint32(fileSection(file, sec)[4*i:])
	}
	dictSize := func(file []byte, sec int) uint32 { return uint32(len(fileSection(file, sec))/4 - 1) }
	edits := []struct {
		name string
		edit func(file []byte)
	}{
		{"end before its node", func(f []byte) { put(f, secEnd, 3, 2) }},
		{"end outside the parent's interval", func(f []byte) { put(f, secEnd, inner, uint32(d.End(d.Parent(inner))+1)) }},
		{"end at the document's length", func(f []byte) { put(f, secEnd, 0, uint32(n)) }},
		{"end far past the document", func(f []byte) { put(f, secEnd, 5, 1<<30) }},
		{"root interval short of the document", func(f []byte) { put(f, secEnd, 0, uint32(n-2)) }},
		{"tag outside the dictionary", func(f []byte) { put(f, secTag, 2, dictSize(f, secTagDictOffs)) }},
		{"val outside the dictionary", func(f []byte) { put(f, secVal, 2, dictSize(f, secValDictOffs)+1) }},
		{"text node without a value", func(f []byte) { put(f, secVal, text, 0) }},
		{"kind outside the three", func(f []byte) { fileSection(f, secKind)[1] = 7 }},
		{"root not an element", func(f []byte) { fileSection(f, secKind)[0] = uint8(xmltree.Text) }},
		{"doc record rows past the columns", func(f []byte) { put(f, secDocs, 0, 1<<30) }},
		{"doc record rows short of the columns", func(f []byte) { put(f, secDocs, 0, uint32(n-1)) }},
		{"doc record name past the names", func(f []byte) { put(f, secDocs, 1, 1<<20) }},
		{"doc record version 0", func(f []byte) { put(f, secDocs, 2, 0) }},
		{"tag dictionary offsets not monotonic", func(f []byte) { put(f, secTagDictOffs, 1, word(f, secTagDictOffs, 2)+1) }},
		{"value dictionary offsets not monotonic", func(f []byte) { put(f, secValDictOffs, 1, word(f, secValDictOffs, 2)+1) }},
		{"section past the payload", func(f []byte) {
			binary.NativeEndian.PutUint64(f[headerSize+secEnd*16+8:], uint64(len(f)))
		}},
	}
	for _, e := range edits {
		t.Run(e.name, func(t *testing.T) {
			file := append([]byte(nil), orig...)
			e.edit(file)
			if err := os.WriteFile(path, reseal(file), 0o644); err != nil {
				t.Fatal(err)
			}
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic: %v", r)
				}
			}()
			s, err := OpenSnapshot(dir)
			if err == nil {
				s.Close()
				t.Fatal("opened without error")
			}
			if !errors.Is(err, ErrSnapshotCorrupt) {
				t.Fatalf("err = %v, want ErrSnapshotCorrupt", err)
			}
			t.Log(err)
		})
	}
}

// FuzzSnapshotOpen feeds data-file payloads past the checksum — each input
// is framed with a fresh header and CRC — to the decoder. It must never
// panic and may only fail with ErrSnapshotCorrupt; every document it does
// open must be a well-formed tree (validateSplice) whose postings are what
// derive builds from its columns, and must serialize.
func FuzzSnapshotOpen(f *testing.F) {
	s := loadSnapDocs(f, New())
	docs := s.dir.Load().docs
	f.Add(encodeData(docs), uint8(len(docs)))
	for _, d := range docs {
		f.Add(encodeData([]*Doc{d}), uint8(1))
	}
	f.Add(encodeData(nil), uint8(0))
	f.Fuzz(func(t *testing.T, payload []byte, count uint8) {
		docs, err := decodeData(putHeader(snapMagic, uint32(count), 0, payload))
		if err != nil {
			if !errors.Is(err, ErrSnapshotCorrupt) {
				t.Fatalf("err = %v, want ErrSnapshotCorrupt", err)
			}
			return
		}
		for _, d := range docs {
			if err := d.validateSplice(); err != nil {
				t.Fatalf("%s: validateSplice: %v", d.Name(), err)
			}
			checkDerived(t, d)
			d.XML(d.Root())
		}
	})
}

// snapshotFootprint is the size of the data file per document node for the
// XMark documents of TestSnapshotFootprint (seed 42; factor 0.1 is the
// document the repository benchmark serves), as measured when the format
// last changed. The file holds only what cannot be derived; a change that
// persists derived data again grows it past the 1.05x the test allows.
// Sizes do not depend on the machine; when a change means to move them,
// measure again (the test logs every section with -v) and update the table.
var snapshotFootprint = []struct{ factor, bytesPerNode float64 }{
	{0.02, 18.17},
	{0.1, 17.44},
}

// TestSnapshotFootprint gates the size of the snapshot data file.
func TestSnapshotFootprint(t *testing.T) {
	names := []string{"docs", "names", "end", "kind", "tag", "val", "tag dict offsets", "tag dict bytes", "val dict offsets", "val dict bytes"}
	for _, tc := range snapshotFootprint {
		s := New()
		id, err := s.Load(xmark.Generate("auction.xml", tc.factor))
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if _, err := s.WriteSnapshot(dir); err != nil {
			t.Fatal(err)
		}
		file, err := os.ReadFile(snapshotDataFile(dir))
		if err != nil {
			t.Fatal(err)
		}
		nodes, xmlBytes := float64(s.Doc(id).Len()), float64(len(s.Doc(id).XML(0)))
		for i, name := range names {
			b := float64(len(fileSection(file, i)))
			t.Logf("factor %g: %-16s %9.0f bytes  %5.2f B/node", tc.factor, name, b, b/nodes)
		}
		got := float64(len(file)) / nodes
		t.Logf("factor %g: data file %d bytes for %.0f nodes and %.0f XML bytes: %.2f B/node, %.3f per XML byte",
			tc.factor, len(file), nodes, xmlBytes, got, float64(len(file))/xmlBytes)
		if got > 1.05*tc.bytesPerNode {
			t.Errorf("factor %g: %.2f bytes per node, more than 1.05x the %.2f recorded", tc.factor, got, tc.bytesPerNode)
		}
	}
}

// TestSnapshotDuplicateName: loading a snapshot over a store that already
// holds one of its document names is rejected atomically — nothing is
// published.
func TestSnapshotDuplicateName(t *testing.T) {
	s := loadSnapDocs(t, New())
	dir := t.TempDir()
	if _, err := s.WriteSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	dst := New()
	if _, err := dst.LoadXML("notes.xml", strings.NewReader(`<n/>`)); err != nil {
		t.Fatal(err)
	}
	err := dst.LoadSnapshot(dir)
	if !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("err = %v, want ErrSnapshotMismatch", err)
	}
	if len(dst.Names()) != 1 {
		t.Fatalf("failed load published documents: %v", dst.Names())
	}
}

// TestSnapshotEmptyStore: an empty store snapshots to a data file without
// documents that opens back into an empty store.
func TestSnapshotEmptyStore(t *testing.T) {
	dir := t.TempDir()
	info, err := New().WriteSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.Docs != 0 {
		t.Fatalf("info = %+v, want no docs", info)
	}
	s, err := OpenSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if n := len(s.Names()); n != 0 {
		t.Fatalf("opened empty snapshot has %d documents", n)
	}
}

// TestSnapshotMissingManifest: a directory without a manifest is not a
// snapshot.
func TestSnapshotMissingManifest(t *testing.T) {
	if _, err := OpenSnapshot(t.TempDir()); err == nil {
		t.Fatal("OpenSnapshot on an empty directory succeeded")
	}
}

// TestSnapshotCloseUnmaps: Close releases the mappings and zeroes the
// mapped-bytes gauge.
func TestSnapshotCloseUnmaps(t *testing.T) {
	s := loadSnapDocs(t, New())
	dir := t.TempDir()
	if _, err := s.WriteSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	snap, err := OpenSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if snap.MappedBytes() <= 0 {
		t.Fatalf("MappedBytes = %d, want > 0", snap.MappedBytes())
	}
	if err := snap.Close(); err != nil {
		t.Fatal(err)
	}
	if snap.MappedBytes() != 0 {
		t.Fatalf("MappedBytes after Close = %d, want 0", snap.MappedBytes())
	}
}
