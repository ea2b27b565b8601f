package shard

import (
	"fmt"
	"testing"

	"cole/internal/core"
	"cole/internal/pagefile"
	"cole/internal/types"
)

// TestShardOfIsFNV1a pins the inline routing hash to 64-bit FNV-1a: a
// different value would route a reopened store's addresses to the wrong
// shard. The table was computed with hash/fnv.
func TestShardOfIsFNV1a(t *testing.T) {
	for _, c := range []struct {
		addr types.Address
		n    int
		want int
	}{
		{types.Address{}, 2, 1},
		{types.Address{}, 7, 5},
		{types.Address{}, 256, 53},
		{types.AddressFromUint64(1), 4, 1},
		{types.AddressFromUint64(1), 255, 34},
		{types.AddressFromString("alice"), 4, 3},
		{types.AddressFromString("alice"), 13, 4},
		{types.AddressFromString("account-0042"), 16, 0},
		{types.AddressFromString("account-0042"), 1, 0},
	} {
		if got := ShardOf(c.addr, c.n); got != c.want {
			t.Errorf("ShardOf(%v, %d) = %d, want %d", c.addr, c.n, got, c.want)
		}
	}
}

// TestGetDoesNotAllocate holds the read path to its cost model: a point
// read — hit, miss, historical or absent — allocates nothing, whether
// every value page it touches is resident or every one is a miss that
// recycles a frame. The store is three levels deep over two shards, so a
// Get routes, pins a view, probes L0 and several runs' filters with one
// hash, descends a resident index and pins value pages.
func TestGetDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	const accounts = 3000
	addrs := make([]types.Address, 4*accounts) // the last three quarters are never written
	for i := range addrs {
		addrs[i] = testAddr(i)
	}
	for _, c := range []struct {
		name  string
		cache *pagefile.Cache // 16 MiB holds the whole store; 2 frames hold nothing
	}{
		{"resident", pagefile.NewCache(pagefile.DefaultPageSize, 4096)},
		{"two-frames", pagefile.NewCache(pagefile.DefaultPageSize, 2)},
	} {
		t.Run(c.name, func(t *testing.T) {
			s, err := open(core.Options{Dir: t.TempDir(), Shards: 2, MemCapacity: 64}, c.cache)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			runBlocks(t, s, 0, 120, 50, accounts)
			if sb := s.Storage(); sb.Levels < 3 {
				t.Fatalf("store has %d levels, the test needs 3", sb.Levels)
			}
			height := s.Height()

			// One pass to fill the cache (where it can be filled) and to
			// check the reads are the right ones.
			i := 0
			read := func() {
				i++
				if v, ok, err := s.Get(addrs[i%accounts]); err != nil || !ok || v == (types.Value{}) {
					panic(fmt.Sprintf("Get(%d) = %v %v %v", i%accounts, v, ok, err))
				}
				if _, at, ok, err := s.GetAt(addrs[i%accounts], height/2); err != nil || (ok && at > height/2) {
					panic(fmt.Sprintf("GetAt(%d, %d) = written at %d, %v %v", i%accounts, height/2, at, ok, err))
				}
				if _, ok, err := s.Get(addrs[accounts+i%(3*accounts)]); err != nil || ok {
					panic(fmt.Sprintf("Get(absent %d) = %v %v", accounts+i, ok, err))
				}
			}
			for k := 0; k < accounts; k++ {
				read()
			}
			before := s.Stats()
			if allocs := testing.AllocsPerRun(2*accounts, read); allocs != 0 {
				t.Fatalf("a Get + GetAt + absent Get allocate %v times", allocs)
			}
			st := s.Stats()
			pages, hits := st.PageReads-before.PageReads, st.CacheHits-before.CacheHits
			switch {
			case c.name == "resident" && (pages != 0 || hits == 0):
				t.Fatalf("resident case read %d pages (%d hits): the store outgrew the cache", pages, hits)
			case c.name == "two-frames" && pages < hits:
				t.Fatalf("two-frame case hit %d of %d page touches: not miss-bound", hits, pages+hits)
			}
		})
	}
}
