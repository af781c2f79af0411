package accessserver

import (
	"sync"
	"sync/atomic"
	"testing"

	"batterylab/internal/api"
)

// dirSpan reports the directory's first chunk number, its length and
// how many of its slots hold a chunk.
func dirSpan[T any](x *chunkIndex[T]) (base, slots, filled int) {
	d := x.dir.Load()
	if d == nil {
		return 0, 0, 0
	}
	for _, ch := range d.chunks {
		if ch != nil {
			filled++
		}
	}
	return d.base, len(d.chunks), filled
}

func TestChunkIndex(t *testing.T) {
	type op struct {
		put, remove []int
	}
	span := func(lo, hi int) []int {
		var ids []int
		for id := lo; id < hi; id++ {
			ids = append(ids, id)
		}
		return ids
	}
	cases := []struct {
		name string
		ops  []op
		// After the ops: ids that must resolve (to their own value), ids
		// that must not, and the directory's shape.
		live, absent        []int
		base, slots, filled int
	}{
		{name: "empty", absent: []int{-1, 0, 1, chunkSize}},
		{
			name: "dense from one",
			ops:  []op{{put: span(1, 3*chunkSize)}},
			live: []int{1, chunkSize - 1, chunkSize, 3*chunkSize - 1}, absent: []int{-5, 0, 3 * chunkSize},
			base: 0, slots: 3, filled: 3,
		},
		{
			name: "evicted ids answer absent, neighbours stay",
			ops:  []op{{put: span(1, 20)}, {remove: []int{3, 4, 19}}, {remove: []int{3}}},
			live: []int{1, 2, 5, 18}, absent: []int{3, 4, 19},
			base: 0, slots: 1, filled: 1,
		},
		{
			// A compacted restart: the first id this process ever sees is
			// far above zero, and the directory must not span the gap.
			name: "ids start far above zero",
			ops:  []op{{put: span(1_000_000, 1_000_000+chunkSize+10)}},
			live: []int{1_000_000, 1_000_000 + chunkSize + 9}, absent: []int{1, 999_999, 1_000_000 + chunkSize + 10},
			base: 1_000_000 / chunkSize, slots: 2, filled: 2,
		},
		{
			name: "a chunk is freed once every cell is a tombstone",
			ops:  []op{{put: span(0, 3*chunkSize)}, {remove: span(chunkSize, 2*chunkSize)}},
			live: []int{0, chunkSize - 1, 2 * chunkSize}, absent: []int{chunkSize, 2*chunkSize - 1},
			base: 0, slots: 3, filled: 2,
		},
		{
			name: "freed chunks at the edges are trimmed",
			ops:  []op{{put: span(0, 3*chunkSize)}, {remove: span(chunkSize, 2*chunkSize)}, {remove: span(0, chunkSize)}},
			live: []int{2 * chunkSize}, absent: []int{0, chunkSize, 2*chunkSize - 1},
			base: 2, slots: 1, filled: 1,
		},
		{
			name:   "everything evicted, then reuse",
			ops:    []op{{put: span(0, 2*chunkSize)}, {remove: span(0, 2*chunkSize)}, {put: []int{5 * chunkSize}}},
			live:   []int{5 * chunkSize},
			absent: []int{0, chunkSize, 5*chunkSize + 1},
			base:   5, slots: 1, filled: 1,
		},
		{
			// Recovery republishes from a map: any order, including ids
			// below everything seen so far.
			name: "out of order",
			ops:  []op{{put: []int{4 * chunkSize, 7, 2*chunkSize + 1, 4*chunkSize + 1, 6 * chunkSize}}},
			live: []int{7, 2*chunkSize + 1, 4 * chunkSize, 4*chunkSize + 1, 6 * chunkSize}, absent: []int{8, chunkSize, 3 * chunkSize, 5 * chunkSize},
			base: 0, slots: 7, filled: 4,
		},
		{
			name:   "republish keeps one cell",
			ops:    []op{{put: []int{9, 9, 9}}, {remove: []int{9}}},
			absent: []int{9},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var x chunkIndex[int]
			for _, o := range tc.ops {
				for _, id := range o.put {
					v := id
					x.put(id, &v)
				}
				for _, id := range o.remove {
					x.remove(id)
				}
			}
			for _, id := range tc.live {
				if v := x.get(id); v == nil || *v != id {
					t.Errorf("get(%d) = %v, want the id back", id, v)
				}
			}
			for _, id := range tc.absent {
				if v := x.get(id); v != nil {
					t.Errorf("get(%d) = %d, want nothing", id, *v)
				}
			}
			base, slots, filled := dirSpan(&x)
			if slots != tc.slots || filled != tc.filled || (slots > 0 && base != tc.base) {
				t.Errorf("directory spans %d slots from chunk %d with %d filled, want %d from %d with %d",
					slots, base, filled, tc.slots, tc.base, tc.filled)
			}
		})
	}
}

// TestChunkIndexConcurrentReaders runs readers against one writer that
// inserts in order and evicts behind itself — the scheduler's pattern —
// under the race detector. A reader may see an id before it is published
// or after it is evicted, never another id's value, and never a
// published id going backwards to an older value.
func TestChunkIndexConcurrentReaders(t *testing.T) {
	const ids, window = 40 * chunkSize, 3 * chunkSize
	var x chunkIndex[[2]int] // {id, version}
	var high atomic.Int64    // every id <= high has been published at least once
	var readers sync.WaitGroup
	done := make(chan struct{})
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			seen := make(map[int]int)
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				id := int(high.Load()) - (i*7+r)%window
				v := x.get(id)
				if v == nil {
					continue
				}
				if v[0] != id {
					t.Errorf("get(%d) returned id %d's value", id, v[0])
					return
				}
				if v[1] < seen[id] {
					t.Errorf("id %d went from version %d back to %d", id, seen[id], v[1])
					return
				}
				seen[id] = v[1]
			}
		}(r)
	}
	for id := 1; id <= ids; id++ {
		x.put(id, &[2]int{id, 1})
		high.Store(int64(id))
		x.put(id, &[2]int{id, 2}) // a transition republishes in place
		if old := id - window; old >= 1 {
			x.remove(old)
		}
	}
	close(done)
	readers.Wait()
	if _, slots, filled := dirSpan(&x); slots > window/chunkSize+1 || filled != slots {
		t.Fatalf("after evicting behind the writer the directory holds %d slots (%d filled), want at most %d, all filled",
			slots, filled, window/chunkSize+1)
	}
}

// TestReadPlaneExpiry: an evicted build no longer resolves (the status
// route then asks the feed hub, which answers expired), and an evicted
// campaign is told apart from one that never existed by the high-water
// mark — including a mark restored far above zero.
func TestReadPlaneExpiry(t *testing.T) {
	rp := newReadPlane()
	for id := 1; id <= 3; id++ {
		rp.publishBuild(api.BuildStatus{ID: id, State: "queued"})
	}
	rp.publishBuild(api.BuildStatus{ID: 2, State: "success"})
	rp.removeBuild(2)
	if _, ok := rp.buildStatus(2); ok {
		t.Fatal("evicted build still served")
	}
	if st, ok := rp.buildStatus(3); !ok || st.State != "queued" {
		t.Fatalf("neighbour of an evicted build = %+v, %v", st, ok)
	}

	members := []int{1, 2, 3}
	rp.publishCampaign(7, members)
	members[0] = 99 // the plane keeps its own copy
	if got, ok := rp.campaign(7); !ok || got[0] != 1 || len(got) != 3 {
		t.Fatalf("campaign(7) = %v, %v", got, ok)
	}
	rp.removeCampaign(7)
	if _, ok := rp.campaign(7); ok {
		t.Fatal("evicted campaign still served")
	}
	if !rp.campaignExpired(7) || !rp.campaignExpired(3) {
		t.Fatal("campaigns at or below the high-water mark must read as expired")
	}
	if rp.campaignExpired(8) || rp.campaignExpired(0) {
		t.Fatal("campaigns above the high-water mark (or below 1) never existed")
	}
	rp.highCamp.Store(5000) // recovery restores the mark
	rp.publishCampaign(5001, []int{4})
	if _, ok := rp.campaign(5001); !ok || !rp.campaignExpired(4000) || rp.campaignExpired(5002) {
		t.Fatal("high-water mark restored above zero: 5001 live, 4000 expired, 5002 unknown")
	}
}
