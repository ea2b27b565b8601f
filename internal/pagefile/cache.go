package pagefile

import (
	"sync"
	"sync/atomic"
)

// DefaultCachePages sizes the private cache a File gets when its opener
// passes none: what a standalone reader (fsck, reshard, a benchmark
// probe) needs to keep a lookup's neighbouring pages around.
const DefaultCachePages = 16

// cacheWays is how many frames share one lock: a lookup scans at most
// this many keys under it.
const cacheWays = 8

// Cache is a page cache shared by any number of Files — one per store, so
// the memory a store spends on cached pages is one budget, not a
// per-file allowance times however many runs the LSM currently has.
//
// It is set-associative: a page's (file handle id, page number) hashes to
// one set of a few frames, and the set's mutex is the only lock a point
// read takes, held for a scan of the set's keys and never across I/O.
// Frames are allocated on first use up to the budget and recycled from
// then on: a miss picks a victim by CLOCK and reads straight into its
// buffer. A reader holds a frame through a pin (Page.Release drops it),
// and a pinned frame is never chosen as a victim, so recycling cannot
// pull bytes out from under a reader; when every frame of a set is
// pinned the read bypasses the cache through a scratch page.
type Cache struct {
	pageSize int
	sets     []cacheSet
	mask     uint64        // len(sets)−1; the set count is a power of two
	nextID   atomic.Uint64 // last file handle id issued
	resident atomic.Int64  // frames whose buffer has been allocated
}

type cacheSet struct {
	mu     sync.Mutex
	hand   int // CLOCK hand
	frames []frame
	_      [24]byte // keep neighbouring sets' locks off one cache line
}

// frame is one page buffer. file, page and ref are guarded by the set's
// mutex. pins is raised under the mutex and dropped without it, which
// only ever makes the frame more evictable; a frame with file == 0 is
// empty or still loading, and no lookup matches it.
type frame struct {
	file uint64
	page int64
	data []byte // nil until first used
	pins atomic.Int32
	ref  bool
}

// NewCache returns a cache of `pages` frames of pageSize bytes (at least
// one).
func NewCache(pageSize, pages int) *Cache {
	if pages < 1 {
		pages = 1
	}
	sets := 1
	for sets*2*cacheWays <= pages {
		sets *= 2
	}
	return newCache(pageSize, sets, pages/sets)
}

// newCache spells the geometry out (sets must be a power of two).
func newCache(pageSize, sets, ways int) *Cache {
	c := &Cache{pageSize: pageSize, sets: make([]cacheSet, sets), mask: uint64(sets - 1)}
	for i := range c.sets {
		c.sets[i].frames = make([]frame, ways)
	}
	return c
}

// PageSize returns the size of the pages the cache holds.
func (c *Cache) PageSize() int { return c.pageSize }

// Bytes reports the memory the cache holds now and the most it will ever
// hold.
func (c *Cache) Bytes() (resident, budget int64) {
	frames := int64(len(c.sets) * len(c.sets[0].frames))
	return c.resident.Load() * int64(c.pageSize), frames * int64(c.pageSize)
}

// newHandle issues a file handle id no other File of this cache has or
// will have: a closed file's leftover frames can never answer for a
// later one. Ids start at 1; 0 marks an unpublished frame.
func (c *Cache) newHandle() uint64 { return c.nextID.Add(1) }

func (c *Cache) setFor(file uint64, page int64) *cacheSet {
	h := (file*0x9E3779B97F4A7C15 + uint64(page)) * 0xFF51AFD7ED558CCD
	return &c.sets[(h>>32)&c.mask]
}

// pin returns the frame holding a page of f, pinned, reading the page in
// on a miss. A nil frame with a nil error means every frame of the page's
// set is pinned: the caller reads the page uncached.
func (c *Cache) pin(f *File, page int64) (fr *frame, hit bool, err error) {
	file := f.id
	set := c.setFor(file, page)
	set.mu.Lock()
	if fr = set.find(file, page); fr != nil {
		fr.pins.Add(1)
		fr.ref = true
		set.mu.Unlock()
		return fr, true, nil
	}
	if fr = set.victim(); fr == nil {
		set.mu.Unlock()
		return nil, false, nil
	}
	// Claim the victim: unpublished and pinned, it is this reader's alone
	// until the page is in.
	fr.file = 0
	fr.pins.Store(1)
	if fr.data == nil {
		fr.data = make([]byte, c.pageSize)
		c.resident.Add(1)
	}
	set.mu.Unlock()

	if err := f.readPage(fr.data, page); err != nil {
		fr.pins.Store(0)
		return nil, false, err
	}
	set.mu.Lock()
	// Two readers can miss on one page together; the second to finish
	// keeps its copy private (it is recycled once released). A page enters
	// with its reference bit clear, so one touched once goes before one
	// that has been hit since.
	if set.find(file, page) == nil {
		fr.file, fr.page, fr.ref = file, page, false
	}
	set.mu.Unlock()
	return fr, false, nil
}

func (s *cacheSet) find(file uint64, page int64) *frame {
	for i := range s.frames {
		if fr := &s.frames[i]; fr.file == file && fr.page == page {
			return fr
		}
	}
	return nil
}

// victim advances the CLOCK hand to an unpinned frame whose reference
// bit is clear, clearing bits as it passes; two sweeps reach one unless
// every frame is pinned.
func (s *cacheSet) victim() *frame {
	for i := 0; i < 2*len(s.frames); i++ {
		fr := &s.frames[s.hand]
		s.hand = (s.hand + 1) % len(s.frames)
		if fr.pins.Load() != 0 {
			continue
		}
		if fr.ref {
			fr.ref = false
			continue
		}
		return fr
	}
	return nil
}
