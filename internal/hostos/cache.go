package hostos

import (
	"vmgrid/internal/hw"
	"vmgrid/internal/lru"
	"vmgrid/internal/sim"
)

// CachePageSize is the buffer cache page granularity. 64 KB pages keep
// the simulated cache index small while staying finer than the transfer
// sizes that matter (boot block runs, image copy chunks).
const CachePageSize int64 = 64 * 1024

// hitLatency is the CPU cost of satisfying a read from the cache.
const hitLatency = 50 * sim.Microsecond

// BufferCache is the host OS disk buffer cache: an LRU of fixed-size
// pages keyed by (file, page index) in front of an hw.Disk. Reads that
// hit cost only a memory copy; misses are charged to the device. Writes
// are write-through: the caller's completion waits for the device, and
// the written pages become cached (this is what makes a VM image read
// shortly after it was copied fast, as in Table 2's persistent rows).
//
// Per-page work hashes nothing and allocates nothing at steady state:
// each Read/Write resolves its file name to a small integer id once,
// the id selects the file's dense page → handle table, and the handle
// addresses the page's node in a pointer-free lru.List.
type BufferCache struct {
	disk     *hw.Disk
	capacity int64 // bytes
	used     int64

	ids     map[string]int32 // interned file names
	freeIDs []int32          // ids of invalidated files, for reuse
	slots   [][]int32        // per file id: page index → list handle, 0 if absent
	pages   *lru.List[pageRef]

	hits, misses uint64
}

// pageRef names a resident page by file id, so the list holds no
// pointers.
type pageRef struct {
	file int32
	page int64
}

// NewBufferCache creates a cache of the given byte capacity over disk.
func NewBufferCache(disk *hw.Disk, capacity int64) *BufferCache {
	if capacity < 0 {
		capacity = 0
	}
	return &BufferCache{
		disk:     disk,
		capacity: capacity,
		ids:      make(map[string]int32),
		pages:    lru.NewList[pageRef](int(capacity / CachePageSize)),
	}
}

// Hits returns the number of pages served from memory.
func (c *BufferCache) Hits() uint64 { return c.hits }

// Misses returns the number of pages that went to the device.
func (c *BufferCache) Misses() uint64 { return c.misses }

// CachedBytes returns the bytes currently resident.
func (c *BufferCache) CachedBytes() int64 { return c.used }

// Capacity returns the configured byte capacity.
func (c *BufferCache) Capacity() int64 { return c.capacity }

func pageRange(off, size int64) (first, last int64) {
	if size <= 0 {
		size = 1
	}
	return off / CachePageSize, (off + size - 1) / CachePageSize
}

// fileID returns file's id, interning the name on first use.
func (c *BufferCache) fileID(file string) int32 {
	if id, ok := c.ids[file]; ok {
		return id
	}
	var id int32
	if n := len(c.freeIDs); n > 0 {
		id = c.freeIDs[n-1]
		c.freeIDs = c.freeIDs[:n-1]
	} else {
		id = int32(len(c.slots))
		c.slots = append(c.slots, nil)
	}
	c.ids[file] = id
	return id
}

// touch marks page pg of file f most recently used and reports whether
// it was resident.
func (c *BufferCache) touch(f int32, pg int64) bool {
	tbl := c.slots[f]
	if pg >= int64(len(tbl)) || tbl[pg] == 0 {
		return false
	}
	c.pages.MoveToFront(tbl[pg])
	return true
}

// insertMissing makes the absent page pg of file f resident, evicting
// least recently used pages to make room.
func (c *BufferCache) insertMissing(f int32, pg int64) {
	if c.capacity < CachePageSize {
		return
	}
	for c.used+CachePageSize > c.capacity && c.pages.Len() > 0 {
		old := c.pages.Remove(c.pages.Back())
		c.slots[old.file][old.page] = 0
		c.used -= CachePageSize
	}
	if tbl := c.slots[f]; pg >= int64(len(tbl)) {
		c.slots[f] = append(tbl, make([]int32, pg+1-int64(len(tbl)))...)
	}
	c.slots[f][pg] = c.pages.PushFront(pageRef{file: f, page: pg})
	c.used += CachePageSize
}

// Read fetches [off, off+size) of file through the cache and invokes
// done when the data is available. Missing pages are fetched from the
// device in a single request; fully cached reads complete after a memory
// copy latency.
func (c *BufferCache) Read(k *sim.Kernel, file string, off, size int64, done func()) {
	if missing := c.read(file, off, size); missing > 0 {
		c.disk.Submit(missing, done)
		return
	}
	k.After(hitLatency, done)
}

// ReadSequential is Read for streaming access patterns: device fetches
// skip the per-request seek, as the host readahead would arrange.
func (c *BufferCache) ReadSequential(k *sim.Kernel, file string, off, size int64, done func()) {
	if missing := c.read(file, off, size); missing > 0 {
		c.disk.SubmitSequential(missing, done)
		return
	}
	k.After(hitLatency, done)
}

// read runs the page walk of a read and returns the bytes to fetch.
func (c *BufferCache) read(file string, off, size int64) (missing int64) {
	f := c.fileID(file)
	first, last := pageRange(off, size)
	for pg := first; pg <= last; pg++ {
		if c.touch(f, pg) {
			c.hits++
			continue
		}
		c.misses++
		missing += CachePageSize
		c.insertMissing(f, pg)
	}
	return missing
}

// Write stores [off, off+size) of file through the cache (write-through)
// and invokes done when the device has absorbed the data. The written
// pages become resident.
func (c *BufferCache) Write(k *sim.Kernel, file string, off, size int64, done func()) {
	c.write(k, file, off, size, done, false)
}

// WriteSequential is Write without the per-request seek charge, for
// streaming writers creating fresh files (e.g. image copies).
func (c *BufferCache) WriteSequential(k *sim.Kernel, file string, off, size int64, done func()) {
	c.write(k, file, off, size, done, true)
}

func (c *BufferCache) write(k *sim.Kernel, file string, off, size int64, done func(), sequential bool) {
	if c.capacity >= CachePageSize {
		f := c.fileID(file)
		first, last := pageRange(off, size)
		for pg := first; pg <= last; pg++ {
			if !c.touch(f, pg) {
				c.insertMissing(f, pg)
			}
		}
	}
	if size <= 0 {
		k.After(hitLatency, done)
		return
	}
	if sequential {
		c.disk.SubmitSequential(size, done)
		return
	}
	c.disk.Submit(size, done)
}

// Invalidate drops all cached pages of file (e.g. when it is deleted).
func (c *BufferCache) Invalidate(file string) {
	f, ok := c.ids[file]
	if !ok {
		return
	}
	for _, h := range c.slots[f] {
		if h != 0 {
			c.pages.Remove(h)
			c.used -= CachePageSize
		}
	}
	c.slots[f] = nil
	delete(c.ids, file)
	c.freeIDs = append(c.freeIDs, f)
}
