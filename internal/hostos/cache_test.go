package hostos

import (
	"math/rand"
	"testing"

	"vmgrid/internal/hw"
	"vmgrid/internal/lru"
	"vmgrid/internal/sim"
)

// refCache is the buffer cache's reference model: the original
// algorithm, which keys every page by (file name, page index) in an
// lru.Cache. BufferCache must match it op for op.
type refCache struct {
	disk     *hw.Disk
	capacity int64
	used     int64
	pages    *lru.Cache[refKey]

	hits, misses uint64
}

type refKey struct {
	file string
	page int64
}

func newRefCache(disk *hw.Disk, capacity int64) *refCache {
	return &refCache{disk: disk, capacity: capacity, pages: lru.New[refKey](0)}
}

func (c *refCache) insert(key refKey) {
	if c.capacity < CachePageSize {
		return
	}
	if c.pages.Touch(key) {
		return
	}
	for c.used+CachePageSize > c.capacity && c.pages.Len() > 0 {
		c.pages.EvictOldest()
		c.used -= CachePageSize
	}
	c.pages.Insert(key)
	c.used += CachePageSize
}

func (c *refCache) read(k *sim.Kernel, file string, off, size int64, sequential bool) {
	first, last := pageRange(off, size)
	var missing int64
	for pg := first; pg <= last; pg++ {
		key := refKey{file: file, page: pg}
		if c.pages.Touch(key) {
			c.hits++
			continue
		}
		c.misses++
		missing += CachePageSize
		c.insert(key)
	}
	switch {
	case missing == 0:
		k.After(hitLatency, nil)
	case sequential:
		c.disk.SubmitSequential(missing, nil)
	default:
		c.disk.Submit(missing, nil)
	}
}

func (c *refCache) write(k *sim.Kernel, file string, off, size int64, sequential bool) {
	first, last := pageRange(off, size)
	for pg := first; pg <= last; pg++ {
		c.insert(refKey{file: file, page: pg})
	}
	switch {
	case size <= 0:
		k.After(hitLatency, nil)
	case sequential:
		c.disk.SubmitSequential(size, nil)
	default:
		c.disk.Submit(size, nil)
	}
}

func (c *refCache) invalidate(file string) {
	// lru.Cache has no key iteration, so rebuild it without file's pages
	// in recency order.
	var keep []refKey
	for {
		key, ok := c.pages.EvictOldest()
		if !ok {
			break
		}
		if key.file == file {
			c.used -= CachePageSize
			continue
		}
		keep = append(keep, key)
	}
	for _, key := range keep {
		c.pages.Insert(key)
	}
}

// cacheOp is one BufferCache call: kind 0-3 are Read, ReadSequential,
// Write and WriteSequential of [off, off+size); kind 4 is Invalidate.
type cacheOp struct {
	kind      int
	file      string
	off, size int64
}

// TestBufferCacheMatchesReference drives BufferCache and the reference
// model through scripted edge cases followed by a seeded random op
// sequence, and requires identical counters, residency and device
// traffic after every op.
func TestBufferCacheMatchesReference(t *testing.T) {
	const P = CachePageSize
	const (
		read = iota
		readSeq
		write
		writeSeq
		invalidate
	)
	// Scripted prefix, applied at every capacity: a read larger than the
	// whole cache (it evicts its own pages), re-reading it, then a file
	// re-created after Invalidate, whose stale pages must not hit.
	script := []cacheOp{
		{read, "big", 0, 20 * P},
		{read, "big", 0, 20 * P},
		{writeSeq, "a", 0, 3 * P},
		{read, "a", P / 2, P},
		{invalidate, "a", 0, 0},
		{read, "a", 0, 3 * P},
		{invalidate, "a", 0, 0},
		{invalidate, "never-seen", 0, 0},
		{write, "b", 5 * P, 0},
		{writeSeq, "a", 2 * P, 2 * P},
		{read, "a", 0, 4 * P},
	}
	files := []string{"a", "b", "c", "d", "big"}
	for _, tc := range []struct {
		name     string
		capacity int64
	}{
		{"zero", 0},
		{"below-one-page", P - 1},
		{"exact-fit", 8 * P},
		{"partial-page", 8*P + P/2},
		{"larger", 24 * P},
	} {
		t.Run(tc.name, func(t *testing.T) {
			kNew, kRef := sim.NewKernel(1), sim.NewKernel(1)
			spec := hw.ReferenceMachine("n").Disk
			dNew, dRef := hw.NewDisk(kNew, spec), hw.NewDisk(kRef, spec)
			c := NewBufferCache(dNew, tc.capacity)
			ref := newRefCache(dRef, tc.capacity)

			ops := append([]cacheOp(nil), script...)
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 4000; i++ {
				op := cacheOp{kind: rng.Intn(5), file: files[rng.Intn(len(files))]}
				if op.kind == invalidate && rng.Intn(4) != 0 {
					op.kind = rng.Intn(invalidate) // keep Invalidate rarer
				}
				op.off = rng.Int63n(40 * P)
				op.size = rng.Int63n(12 * P)
				ops = append(ops, op)
			}
			for i, op := range ops {
				switch op.kind {
				case read:
					c.Read(kNew, op.file, op.off, op.size, nil)
					ref.read(kRef, op.file, op.off, op.size, false)
				case readSeq:
					c.ReadSequential(kNew, op.file, op.off, op.size, nil)
					ref.read(kRef, op.file, op.off, op.size, true)
				case write:
					c.Write(kNew, op.file, op.off, op.size, nil)
					ref.write(kRef, op.file, op.off, op.size, false)
				case writeSeq:
					c.WriteSequential(kNew, op.file, op.off, op.size, nil)
					ref.write(kRef, op.file, op.off, op.size, true)
				case invalidate:
					c.Invalidate(op.file)
					ref.invalidate(op.file)
				}
				kNew.Run()
				kRef.Run()
				if c.Hits() != ref.hits || c.Misses() != ref.misses ||
					c.CachedBytes() != ref.used ||
					dNew.Requests() != dRef.Requests() ||
					dNew.BytesTransferred() != dRef.BytesTransferred() ||
					kNew.Now() != kRef.Now() {
					t.Fatalf("op %d %+v: hits %d/%d misses %d/%d cached %d/%d requests %d/%d bytes %d/%d now %v/%v (cache/reference)",
						i, op, c.Hits(), ref.hits, c.Misses(), ref.misses, c.CachedBytes(), ref.used,
						dNew.Requests(), dRef.Requests(), dNew.BytesTransferred(), dRef.BytesTransferred(),
						kNew.Now(), kRef.Now())
				}
				if c.CachedBytes() > c.Capacity() {
					t.Fatalf("op %d: cached %d over capacity %d", i, c.CachedBytes(), c.Capacity())
				}
			}
		})
	}
}

// BenchmarkBufferCacheChurn is the image-copy page walk at steady
// state: each op reads one page of a source file and writes one page of
// a destination file, both 4× the cache capacity, so every page misses
// and evicts. It must not allocate.
func BenchmarkBufferCacheChurn(b *testing.B) {
	const capPages, filePages = 64, 4 * 64
	k := sim.NewKernel(1)
	c := NewBufferCache(hw.NewDisk(k, hw.ReferenceMachine("n").Disk), capPages*CachePageSize)
	op := func(i int) {
		off := int64(i%filePages) * CachePageSize
		c.Read(k, "src", off, CachePageSize, nil)
		c.WriteSequential(k, "dst", off, CachePageSize, nil)
		k.Run()
	}
	for i := 0; i < filePages; i++ {
		op(i) // grow the slot tables and the node arena
	}
	misses := c.Misses()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(i)
	}
	b.StopTimer()
	if got := c.Misses() - misses; got != uint64(b.N) {
		b.Fatalf("%d of %d reads missed, want every one", got, b.N)
	}
}
