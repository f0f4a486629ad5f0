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

func loadSnapDocs(t *testing.T, s *Store) *Store {
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
// into a fresh store, and require byte-identical documents, indexes and
// statistics. The shards=4 case builds its store with NewSharded(4), which
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

				// Statistics catalog parity for every tag in the document.
				wd, gd := src.Doc(wid), snap.Doc(gid)
				wc, gc := src.Catalog(), snap.Catalog()
				if wc.RootTag(wid) != gc.RootTag(gid) {
					t.Fatalf("%s: root tag differs", name)
				}
				if wc.NodeCount([]DocID{wid}) != gc.NodeCount([]DocID{gid}) {
					t.Fatalf("%s: node count differs", name)
				}
				if wc.Depth([]DocID{wid}) != gc.Depth([]DocID{gid}) {
					t.Fatalf("%s: depth differs", name)
				}
				for i := int32(0); i < int32(wd.Len()); i++ {
					tag := wd.Tag(i)
					if tag == "" {
						continue
					}
					if w, g := wc.Tag(wid, tag), gc.Tag(gid, tag); w != g {
						t.Fatalf("%s: TagStats(%q) = %+v, want %+v", name, tag, g, w)
					}
					if w, g := wc.DistinctValues([]DocID{wid}, tag), gc.DistinctValues([]DocID{gid}, tag); w != g {
						t.Fatalf("%s: DistinctValues(%q) = %d, want %d", name, tag, g, w)
					}
					for j := int32(0); j < int32(wd.Len()); j++ {
						dtag := wd.Tag(j)
						if dtag == "" {
							continue
						}
						if w, g := wc.ChildPerParent([]DocID{wid}, tag, dtag), gc.ChildPerParent([]DocID{gid}, tag, dtag); w != g {
							t.Fatalf("%s: ChildPerParent(%q,%q) = %v, want %v", name, tag, dtag, g, w)
						}
						if w, g := wc.DescPerAncestor([]DocID{wid}, tag, dtag), gc.DescPerAncestor([]DocID{gid}, tag, dtag); w != g {
							t.Fatalf("%s: DescPerAncestor(%q,%q) = %v, want %v", name, tag, dtag, g, w)
						}
					}
				}
				_ = gd
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

// TestSnapshotParentVersion: a snapshot written in the previous format
// version is refused with the version error — not read as corrupt, and
// never a panic — whether its manifest or its data file carries the old
// header.
func TestSnapshotParentVersion(t *testing.T) {
	for _, name := range []string{manifestName, dataName} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if _, err := loadSnapDocs(t, New()).WriteSnapshot(dir); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, name)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			magic := string(data[:8])
			if err := os.WriteFile(path, parentHeader(magic, data[headerSize:]), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err = OpenSnapshot(dir)
			if !errors.Is(err, ErrSnapshotVersion) || errors.Is(err, ErrSnapshotCorrupt) {
				t.Fatalf("err = %v, want ErrSnapshotVersion only", err)
			}
		})
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
