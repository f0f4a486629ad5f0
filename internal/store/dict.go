package store

import (
	"hash/maphash"
	"sync"
	"sync/atomic"
	"unsafe"
)

// dict is an interned string dictionary: a bijection between strings and
// dense uint32 IDs. One dictionary instance serves one shard's tag (or
// value) namespace — every tag/value column of the shard's documents holds
// IDs of the shard dictionary, so equal strings are stored once and
// compared as integers.
//
// The dictionary is shared by every version of every document of the
// shard and is append-only: an ID, once issued, names the same string
// forever, so a reader pinned on an old document version resolves its
// columns correctly however many strings later updates bring. Nothing is
// copied when it grows — interning costs the strings that are new, not the
// strings already there — and reads never lock:
//
//   - The strings (ID -> string) are one byte blob and an array of offsets
//     into it — the snapshot's on-disk form, so a snapshot-opened dictionary
//     is a view of the mapped file — published together through an atomic
//     pointer. Both arrays grow by amortized doubling and are appended to in
//     place; that is safe because a published header never reads past its
//     own lengths and the pointer swap orders the appends before any reader
//     that can see the new lengths. str is one atomic load; the string it
//     returns aliases the blob, which is never rewritten.
//   - table (string -> ID) is an insert-only open-addressing hash table of
//     ID+1 (0 = empty slot), at most half full, rebuilt at twice the size
//     when it fills (amortized like the doubling of the arrays). A slot is
//     stored after the string it names is published, so a reader that sees
//     the slot can resolve it; a reader probing an older table than the
//     writer merely misses strings interned since, as if it had looked
//     earlier.
//
// Neither part holds a pointer per string, so the garbage collector's work
// does not grow with the dictionary — with []string and a map it marks two
// pointers and an object per string ever interned, on every cycle, and
// updates that allocate a document version each make cycles frequent.
//
// Writers serialize on mu.
type dict struct {
	mu    sync.Mutex
	seed  maphash.Seed
	data  atomic.Pointer[dictData]
	table atomic.Pointer[[]atomic.Uint32]
}

// dictData is one published state of the strings: string id is
// blob[offs[id]:offs[id+1]], so len(offs) is the number of strings plus one.
type dictData struct {
	offs []uint32
	blob []byte
}

func (v *dictData) str(id uint32) string {
	lo, hi := v.offs[id], v.offs[id+1]
	if lo == hi {
		return ""
	}
	return unsafe.String(&v.blob[lo], hi-lo)
}

func newDict() *dict { return newFrozenDict([]uint32{0}, nil) }

// newFrozenDict returns a dictionary pre-populated with the strings
// blob[offs[i]:offs[i+1]] (the caller has checked that offs ascends from
// within blob to its end); used when opening a snapshot, where both are
// views into the mapped file and only the lookup table lives on the heap.
// The first string interned afterwards moves them to heap arrays; the views
// are never written.
func newFrozenDict(offs []uint32, blob []byte) *dict {
	d := &dict{seed: maphash.MakeSeed()}
	v := &dictData{offs: offs[:len(offs):len(offs)], blob: blob[:len(blob):len(blob)]}
	d.data.Store(v)
	d.rebuild(v)
	return d
}

// rebuild publishes a fresh table holding every string of v, a quarter
// full.
func (d *dict) rebuild(v *dictData) {
	n := len(v.offs) - 1
	size := 16
	for size < 4*n {
		size *= 2
	}
	t := make([]atomic.Uint32, size)
	for id := 0; id < n; id++ {
		d.place(t, v.str(uint32(id)), uint32(id))
	}
	d.table.Store(&t)
}

// place stores id in the first free slot of s's probe sequence.
func (d *dict) place(t []atomic.Uint32, s string, id uint32) {
	mask := uint64(len(t) - 1)
	i := maphash.String(d.seed, s) & mask
	for t[i].Load() != 0 {
		i = (i + 1) & mask
	}
	t[i].Store(id + 1)
}

// lookup resolves a string to its ID without locking.
func (d *dict) lookup(s string) (uint32, bool) {
	t := *d.table.Load()
	mask := uint64(len(t) - 1)
	for i := maphash.String(d.seed, s) & mask; ; i = (i + 1) & mask {
		v := t[i].Load()
		if v == 0 {
			return 0, false
		}
		if d.str(v-1) == s {
			return v - 1, true
		}
	}
}

// str resolves an ID to its string without locking.
func (d *dict) str(id uint32) string { return d.data.Load().str(id) }

// size returns the number of interned strings.
func (d *dict) size() int { return len(d.data.Load().offs) - 1 }

// internAll interns every string of local (a document-local string table,
// deduplicated by the caller) and returns the global ID of each, aligned
// with local. Strings already present are resolved without the lock; it is
// taken only to add the missing ones, so a batch costs O(new strings)
// however large the batch or the dictionary is.
func (d *dict) internAll(local []string) []uint32 {
	out := make([]uint32, len(local))
	var missing []int
	for i, s := range local {
		id, ok := d.lookup(s)
		if !ok {
			missing = append(missing, i)
		}
		out[i] = id
	}
	if len(missing) == 0 {
		return out
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	v := *d.data.Load()
	first := len(v.offs) - 1
	for _, i := range missing {
		id, ok := d.lookup(local[i]) // another writer may have brought it meanwhile
		if !ok {
			id = uint32(len(v.offs) - 1)
			v.blob = append(v.blob, local[i]...)
			v.offs = append(v.offs, uint32(len(v.blob)))
		}
		out[i] = id
	}
	// Strings before slots: whoever finds a slot can resolve it.
	d.data.Store(&v)
	if t, n := *d.table.Load(), len(v.offs)-1; 2*n <= len(t) {
		for id := first; id < n; id++ {
			d.place(t, v.str(uint32(id)), uint32(id))
		}
	} else {
		d.rebuild(&v)
	}
	return out
}
