package analytics

import (
	"sync"
	"sync/atomic"

	"batterylab/internal/samples"
)

// ringLen is the number of chunk buffers one query decodes into: the
// decoder runs up to ringLen chunks ahead of the slower fold, which
// absorbs either side's scheduling jitter without copying the trace
// (ringLen × 80 KiB).
const ringLen = 4

// chunkBuf is one slot of the ring: a decoded chunk's columns (its
// levels too, on a grid), and how many holders, the folds and the
// producer handing it out, have yet to finish with them.
type chunkBuf struct {
	t    [samples.ChunkLen]int64
	v    [samples.ChunkLen]float64
	k    [samples.ChunkLen]uint32
	refs atomic.Int32
}

// rings recycles the chunk buffers across queries, so a query allocates
// for its buckets, not for its ring.
var rings = sync.Pool{New: func() any { return new([ringLen]chunkBuf) }}

// batch is one chunk handed to the folds: its offsets, values and, on a
// grid, the values' levels (nil off one). buf is the ring slot holding
// the columns, nil when they are a Series' own memory.
type batch struct {
	t   []int64
	v   []float64
	k   []uint32
	buf *chunkBuf
}

// fold is one aggregator's run fold: t[i] paired with v[i], whose level
// is k[i] when k is not nil.
type fold func(t []int64, v []float64, k []uint32)

// pipeline hands a stream of chunks to a fixed set of folds, every fold
// seeing every chunk in order. Each fold runs on a goroutine of its own,
// fed through a lane, while the caller produces the next chunks.
type pipeline struct {
	folds []fold
	lanes []chan batch
	wg    sync.WaitGroup
	// panics[i] is what fold i panicked with; written before its
	// goroutine's wg.Done.
	panics []any

	// The ring, taken from rings at the first buffer call; free holds its
	// slots that no fold still reads.
	ring *[ringLen]chunkBuf
	free chan *chunkBuf
}

// runFolds runs produce, which emits chunks into folds, and returns once
// every fold has seen every chunk. No goroutine it starts outlives it,
// whether produce returns or panics, and a fold's panic is re-raised on
// the caller. With no folds, produce runs alone on the ring.
func runFolds(folds []fold, produce func(p *pipeline)) {
	p := &pipeline{
		folds:  folds,
		lanes:  make([]chan batch, len(folds)),
		panics: make([]any, len(folds)),
	}
	for i, fold := range folds {
		// Up to ringLen decoded chunks can be in flight, so ringLen slots
		// keep the decoder from waiting on a lane while a buffer is free.
		p.lanes[i] = make(chan batch, ringLen)
		p.wg.Add(1)
		go p.drive(i, fold)
	}
	defer p.stop()
	produce(p)
}

// drive runs fold i over its lane until the lane is closed. After a
// panic it keeps releasing what arrives, so the producer never waits on
// a buffer the dead fold holds.
func (p *pipeline) drive(i int, fold fold) {
	defer p.wg.Done()
	var cur batch
	defer func() {
		if v := recover(); v != nil {
			p.panics[i] = v
			p.release(cur)
			for b := range p.lanes[i] {
				p.release(b)
			}
		}
	}()
	for cur = range p.lanes[i] {
		fold(cur.t, cur.v, cur.k)
		p.release(cur)
	}
}

// buffer returns a ring slot to decode the next chunk into, waiting
// until every fold has finished with it.
func (p *pipeline) buffer() *chunkBuf {
	if p.ring == nil {
		p.ring = rings.Get().(*[ringLen]chunkBuf)
		p.free = make(chan *chunkBuf, ringLen) // holds the whole ring
		for i := range p.ring {
			p.free <- &p.ring[i]
		}
	}
	return <-p.free
}

// emit hands b to every fold. A ring slot goes back to the free list
// once the last of them has folded it, and the producer has handed it to
// all of them: with no fold at all, at once.
func (p *pipeline) emit(b batch) {
	if b.buf != nil {
		b.buf.refs.Store(int32(len(p.folds) + 1))
	}
	for _, lane := range p.lanes {
		lane <- b
	}
	p.release(b)
}

func (p *pipeline) release(b batch) {
	if b.buf != nil && b.buf.refs.Add(-1) == 0 {
		p.free <- b.buf
	}
}

// stop closes the lanes, waits for every fold goroutine to return, hands
// the ring back and re-raises the first fold panic.
func (p *pipeline) stop() {
	for _, lane := range p.lanes {
		close(lane)
	}
	p.wg.Wait()
	if p.ring != nil {
		rings.Put(p.ring)
	}
	for _, v := range p.panics {
		if v != nil {
			panic(v)
		}
	}
}
