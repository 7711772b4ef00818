// Package storage models the files that make a virtual machine portable:
// base disk images, copy-on-write difference files, memory (suspend)
// snapshots, and the per-host stores that hold them. The paper's central
// abstraction — "a VM is a process plus files" — lives here: everything a
// VM is can be copied, transferred, cached, and instantiated elsewhere.
package storage

import (
	"errors"
	"fmt"
	"sort"

	"vmgrid/internal/chunk"
	"vmgrid/internal/hostos"
	"vmgrid/internal/sim"
)

// Sentinel errors callers match with errors.Is.
var (
	ErrNotFound = errors.New("storage: file not found")
	ErrExists   = errors.New("storage: file already exists")
)

// CopyChunk is the unit of Store.Copy: each chunk pays one read request
// (with seek) and one streaming write, which reproduces the effective
// single-digit-MB/s throughput of a same-disk file copy — the mechanism
// behind Table 2's persistent-disk startup times.
const CopyChunk int64 = 128 * 1024

// Backend is random-access block storage for one file, with completion
// callbacks in virtual time. Local files and remote (grid virtual file
// system) files both implement it, so a virtual disk does not care where
// its image lives — the property the paper calls site independence.
type Backend interface {
	// Name identifies the file for diagnostics.
	Name() string
	// Size returns the file length in bytes.
	Size() int64
	// Read fetches [off, off+size) and calls done when available.
	Read(off, size int64, done func())
	// ReadSequential is Read for streaming patterns (readahead applies).
	ReadSequential(off, size int64, done func())
	// Write stores [off, off+size) and calls done when durable.
	Write(off, size int64, done func())
}

// Store is a host-local file namespace backed by the host's disk through
// its buffer cache.
type Store struct {
	host  *hostos.Host
	files map[string]int64

	// plane, when attached, gives every file a content-key manifest so
	// staging paths can dedup against the node's chunk cache. nil (the
	// default) keeps the pre-chunking behavior exactly.
	plane  *chunk.Plane
	chunks map[string][]chunk.Key
}

// NewStore creates an empty store on h.
func NewStore(h *hostos.Host) *Store {
	return &Store{host: h, files: make(map[string]int64)}
}

// Host returns the owning host.
func (s *Store) Host() *hostos.Host { return s.host }

// SetChunkPlane attaches the content-addressed chunk plane: existing
// files get fresh manifests (their content predates the plane, so the
// keys are newly minted) and every chunk is recorded in the node's
// cache. Files are processed in sorted-name order so key assignment is
// deterministic regardless of map layout.
func (s *Store) SetChunkPlane(p *chunk.Plane) {
	s.plane = p
	s.chunks = make(map[string][]chunk.Key, len(s.files))
	for _, name := range s.Files() {
		s.mintManifest(name)
	}
}

// ChunkPlane returns the attached plane, or nil.
func (s *Store) ChunkPlane() *chunk.Plane { return s.plane }

// ChunkKeys returns a snapshot of the file's chunk manifest (nil when
// no plane is attached or the file is unknown).
func (s *Store) ChunkKeys(name string) []chunk.Key {
	keys, ok := s.chunks[name]
	if !ok {
		return nil
	}
	return append([]chunk.Key(nil), keys...)
}

// cache returns this node's chunk cache.
func (s *Store) cache() *chunk.Cache { return s.plane.CacheFor(s.host.Name()) }

// mintManifest issues fresh keys for every chunk of the file and
// records them as held by this node.
func (s *Store) mintManifest(name string) {
	size := s.files[name]
	total := s.plane.Count(size)
	keys := make([]chunk.Key, total)
	cache := s.cache()
	for i := range keys {
		_, n := s.plane.Span(size, i)
		keys[i] = s.plane.Mint()
		cache.Add(keys[i], n)
	}
	s.chunks[name] = keys
}

// touchChunks re-mints the keys of every chunk overlapping a guest
// write to [off, off+n): the content changed, so its old identity is
// gone. Chunks added by growth but outside the written range keep the
// reserved zero key (file holes are all-zero and legitimately dedup
// against each other).
func (s *Store) touchChunks(name string, off, n int64) {
	if s.plane == nil || n <= 0 {
		return
	}
	size := s.files[name]
	total := s.plane.Count(size)
	keys := s.chunks[name]
	for len(keys) < total {
		keys = append(keys, 0)
	}
	cb := s.plane.ChunkBytes()
	cache := s.cache()
	last := int((off + n - 1) / cb)
	for i := int(off / cb); i <= last && i < total; i++ {
		_, cn := s.plane.Span(size, i)
		keys[i] = s.plane.Mint()
		cache.Add(keys[i], cn)
	}
	s.chunks[name] = keys
}

// adoptChunk records that chunk i of the file holds key: content copied
// from elsewhere keeps its identity instead of minting a new one. The
// file grows to cover the chunk. Used by the staging paths both for
// transferred chunks and for dedup hits materialized by reference.
func (s *Store) adoptChunk(name string, i int, key chunk.Key, off, n int64) {
	if end := off + n; end > s.files[name] {
		s.files[name] = end
	}
	keys := s.chunks[name]
	for len(keys) <= i {
		keys = append(keys, 0)
	}
	keys[i] = key
	s.chunks[name] = keys
	s.cache().Add(key, n)
}

// AdoptChunk is adoptChunk for dedup hits: no bytes move and no I/O is
// charged — the node already holds the content, and materializing it
// into the file is a copy-on-write reference. [off, off+n) is the
// chunk's extent in the destination file.
func (s *Store) AdoptChunk(name string, i int, key chunk.Key, off, n int64) {
	s.adoptChunk(name, i, key, off, n)
}

// CreateWithChunks creates a file carrying an existing manifest (a tape
// recall landing content whose identity is known), seeding the node
// cache with every key.
func (s *Store) CreateWithChunks(name string, size int64, keys []chunk.Key) error {
	if err := s.Create(name, 0); err != nil {
		return err
	}
	if s.plane == nil {
		s.files[name] = size
		return nil
	}
	s.files[name] = size
	adopted := append([]chunk.Key(nil), keys...)
	cache := s.cache()
	for i, k := range adopted {
		_, n := s.plane.Span(size, i)
		cache.Add(k, n)
	}
	s.chunks[name] = adopted
	return nil
}

// Create adds an empty-to-size file without charging I/O (the bytes are
// assumed pre-existing, e.g. an archived image).
func (s *Store) Create(name string, size int64) error {
	if name == "" {
		return fmt.Errorf("storage: create with empty name")
	}
	if size < 0 {
		return fmt.Errorf("storage: create %q with negative size", name)
	}
	if _, ok := s.files[name]; ok {
		return fmt.Errorf("%w: %s", ErrExists, name)
	}
	s.files[name] = size
	if s.plane != nil {
		s.mintManifest(name)
	}
	return nil
}

// Has reports whether the file exists.
func (s *Store) Has(name string) bool {
	_, ok := s.files[name]
	return ok
}

// Size returns the file's length.
func (s *Store) Size(name string) (int64, error) {
	sz, ok := s.files[name]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return sz, nil
}

// Delete removes the file and drops its cached pages. The node's chunk
// cache keeps the file's keys: the content blocks outlive the name in
// the content store, which is what makes cross-session dedup work.
func (s *Store) Delete(name string) error {
	if _, ok := s.files[name]; !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	delete(s.files, name)
	delete(s.chunks, name)
	s.host.Cache().Invalidate(s.qualify(name))
	return nil
}

// Files lists stored file names in sorted order.
func (s *Store) Files() []string {
	out := make([]string, 0, len(s.files))
	for name := range s.files {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// qualify namespaces cache keys per host so two stores on different
// hosts never share pages.
func (s *Store) qualify(name string) string {
	return s.host.Name() + ":" + name
}

// Open returns a Backend for an existing file.
func (s *Store) Open(name string) (*LocalFile, error) {
	if _, ok := s.files[name]; !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return &LocalFile{store: s, name: name, qname: s.qualify(name)}, nil
}

// OpenOrCreate returns a Backend, creating a zero-length file if needed.
func (s *Store) OpenOrCreate(name string) (*LocalFile, error) {
	if !s.Has(name) {
		if err := s.Create(name, 0); err != nil {
			return nil, err
		}
	}
	return s.Open(name)
}

// Copy duplicates src into dst on the same store, chunk by chunk through
// the buffer cache, invoking done when the last chunk is durable. The
// destination must not exist. This is the explicit whole-state transfer
// of Table 2's "Persistent" rows.
func (s *Store) Copy(src, dst string, done func()) error {
	size, ok := s.files[src]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, src)
	}
	if _, ok := s.files[dst]; ok {
		return fmt.Errorf("%w: %s", ErrExists, dst)
	}
	s.files[dst] = size
	if s.plane != nil {
		// Same-node duplication: the copy's content is the source's, so
		// the manifest carries over (every key is already in this node's
		// cache).
		s.chunks[dst] = append([]chunk.Key(nil), s.chunks[src]...)
	}
	c := &copier{
		k:     s.host.Kernel(),
		cache: s.host.Cache(),
		src:   s.qualify(src),
		dst:   s.qualify(dst),
		size:  size,
		done:  done,
	}
	c.writeFn = c.write
	c.nextFn = c.next
	c.step()
	return nil
}

// copier drives one Store.Copy: a chunk is read, then written, then the
// next chunk starts. The names are qualified and the stage callbacks
// bound once per copy, so the per-chunk loop allocates nothing.
type copier struct {
	k        *sim.Kernel
	cache    *hostos.BufferCache
	src, dst string
	size     int64
	off, n   int64 // chunk in flight
	done     func()

	writeFn func() // read of the chunk complete: write it
	nextFn  func() // write of the chunk durable: start the next
}

func (c *copier) step() {
	if c.off >= c.size {
		if c.done != nil {
			c.done()
		}
		return
	}
	c.n = min(CopyChunk, c.size-c.off)
	c.cache.Read(c.k, c.src, c.off, c.n, c.writeFn)
}

func (c *copier) write() {
	c.cache.WriteSequential(c.k, c.dst, c.off, c.n, c.nextFn)
}

func (c *copier) next() {
	c.off += c.n
	c.step()
}

// LocalFile is a Backend over a Store file, charged to the host disk
// through the buffer cache.
type LocalFile struct {
	store *Store
	name  string
	qname string // host-qualified cache key, built once at Open
}

var _ Backend = (*LocalFile)(nil)

// Name returns the file name qualified by its host. The qualified form
// doubles as the buffer-cache key of every Read/Write, so it is built
// once at Open instead of concatenated per operation.
func (f *LocalFile) Name() string { return f.qname }

// Size returns the current file length.
func (f *LocalFile) Size() int64 { return f.store.files[f.name] }

// Read implements Backend.
func (f *LocalFile) Read(off, size int64, done func()) {
	f.store.host.Cache().Read(f.store.host.Kernel(), f.Name(), off, size, done)
}

// ReadSequential implements Backend.
func (f *LocalFile) ReadSequential(off, size int64, done func()) {
	f.store.host.Cache().ReadSequential(f.store.host.Kernel(), f.Name(), off, size, done)
}

// Write implements Backend, growing the file as needed. With a chunk
// plane attached, the touched chunks' keys are re-minted: the content
// changed, so its old identity no longer names it.
func (f *LocalFile) Write(off, size int64, done func()) {
	if end := off + size; end > f.store.files[f.name] {
		f.store.files[f.name] = end
	}
	f.store.touchChunks(f.name, off, size)
	f.store.host.Cache().Write(f.store.host.Kernel(), f.Name(), off, size, done)
}

// WriteChunkAs writes chunk i's bytes [off, off+n) and records key for
// it: a transfer landing content copied from elsewhere, which keeps its
// identity instead of minting a new one the way a guest Write would.
func (f *LocalFile) WriteChunkAs(i int, key chunk.Key, off, n int64, done func()) {
	f.store.adoptChunk(f.name, i, key, off, n)
	f.store.host.Cache().WriteSequential(f.store.host.Kernel(), f.Name(), off, n, done)
}
