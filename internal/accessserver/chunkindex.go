package accessserver

import (
	"sync"
	"sync/atomic"
)

// chunkSize is how many consecutive ids one chunk of a chunkIndex
// covers.
const chunkSize = 256

// chunkIndex maps dense, monotonically issued integer ids (build ids,
// campaign ids) to published values for lock-free readers. It is a
// copy-on-write directory of fixed-size chunks whose cells are atomic
// pointers: a read is one directory load plus one cell load and never
// takes a lock; republishing an id is one cell store; a new id costs a
// directory change only once per chunkSize ids, and that change is an
// append when ids arrive in order, so inserting is O(1) amortised where
// a copy-on-write map copied every live entry. Evicting stores a nil
// tombstone, and a chunk whose every cell is a tombstone is dropped from
// the directory, so memory follows the live id range rather than the
// highest id ever issued.
//
// The zero value is an empty index. Writers are serialized by wmu, a
// leaf lock (the index never calls out); readers never take it.
type chunkIndex[T any] struct {
	wmu sync.Mutex
	dir atomic.Pointer[chunkDir[T]]
}

// chunkDir is one immutable directory version: chunks[i] covers ids
// [(base+i)*chunkSize, (base+i+1)*chunkSize). A nil slot was never
// filled or has been freed.
type chunkDir[T any] struct {
	base   int
	chunks []*chunk[T]
}

type chunk[T any] struct {
	cells [chunkSize]atomic.Pointer[T]
	live  int // non-nil cells; writers only, under wmu
}

// at resolves id's chunk in this directory version (nil when absent).
func (d *chunkDir[T]) at(id int) *chunk[T] {
	if d == nil || id < 0 {
		return nil
	}
	i := id/chunkSize - d.base
	if i < 0 || i >= len(d.chunks) {
		return nil
	}
	return d.chunks[i]
}

// get returns id's published value, nil when id was never published or
// has been evicted.
func (x *chunkIndex[T]) get(id int) *T {
	ch := x.dir.Load().at(id)
	if ch == nil {
		return nil
	}
	return ch.cells[id%chunkSize].Load()
}

// put publishes v as id's value. Ids may arrive in any order (recovery
// replays a map), but in-order arrival is the cheap case.
func (x *chunkIndex[T]) put(id int, v *T) {
	if id < 0 {
		return
	}
	x.wmu.Lock()
	defer x.wmu.Unlock()
	d := x.dir.Load()
	ch := d.at(id)
	fresh := ch == nil
	if fresh {
		ch = &chunk[T]{}
	}
	cell := &ch.cells[id%chunkSize]
	if cell.Load() == nil {
		ch.live++
	}
	cell.Store(v)
	if fresh {
		// The cell is filled before the chunk becomes reachable, so the
		// id appears to readers in one step.
		x.dir.Store(d.with(id/chunkSize, ch))
	}
}

// with returns a directory that also holds ch as chunk number cn.
func (d *chunkDir[T]) with(cn int, ch *chunk[T]) *chunkDir[T] {
	if d == nil || len(d.chunks) == 0 {
		return &chunkDir[T]{base: cn, chunks: []*chunk[T]{ch}}
	}
	end := d.base + len(d.chunks)
	if cn == end {
		// The dense, in-order case. append may write into the backing
		// array's spare capacity, which is safe: every directory version
		// sharing that array is no longer than d, so no reader can be
		// looking at the slot being written.
		return &chunkDir[T]{base: d.base, chunks: append(d.chunks, ch)}
	}
	lo, hi := min(d.base, cn), max(end, cn+1)
	chunks := make([]*chunk[T], hi-lo)
	copy(chunks[d.base-lo:], d.chunks)
	chunks[cn-lo] = ch
	return &chunkDir[T]{base: lo, chunks: chunks}
}

// remove evicts id: its cell becomes a nil tombstone, and the chunk is
// freed when that was its last live cell.
func (x *chunkIndex[T]) remove(id int) {
	x.wmu.Lock()
	defer x.wmu.Unlock()
	d := x.dir.Load()
	ch := d.at(id)
	if ch == nil {
		return
	}
	cell := &ch.cells[id%chunkSize]
	if cell.Load() == nil {
		return
	}
	cell.Store(nil)
	if ch.live--; ch.live > 0 {
		return
	}
	// A fresh array, never a shared one: readers of d may still be
	// indexing the old one. Freed chunks at either end are trimmed so the
	// directory spans only the live id range.
	chunks := append([]*chunk[T](nil), d.chunks...)
	chunks[id/chunkSize-d.base] = nil
	lo, hi := 0, len(chunks)
	for lo < hi && chunks[lo] == nil {
		lo++
	}
	for hi > lo && chunks[hi-1] == nil {
		hi--
	}
	x.dir.Store(&chunkDir[T]{base: d.base + lo, chunks: chunks[lo:hi]})
}
