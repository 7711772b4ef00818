// Package lru provides the recency list shared by the simulation data
// plane's caches (the host OS buffer cache, the vfs proxy cache and the
// chunk cache). List is a doubly linked list laid out in one slice and
// linked by int32 indices instead of pointers: nodes are recycled
// through a freelist, so a list at steady state allocates nothing, and
// a list whose values hold no pointers is invisible to the garbage
// collector's scan and costs no write barriers. Cache layers a key →
// handle map on a List for callers whose keys are not dense integers.
package lru

// List is an LRU recency list of values addressed by int32 handles. A
// handle stays valid from PushFront until Remove; 0 is never a handle,
// so callers can use it as "absent" in zero-initialized index tables.
// The zero value is not usable; call NewList.
type List[V any] struct {
	// nodes[0] is the sentinel of a circular list: its next is the most
	// recently used node and its prev the least recently used one.
	nodes []listNode[V]
	free  int32 // first recycled node, chained through next; 0 if none
	n     int
}

type listNode[V any] struct {
	val        V
	prev, next int32
}

// NewList creates a list with room for sizeHint values before it grows.
func NewList[V any](sizeHint int) *List[V] {
	if sizeHint < 0 {
		sizeHint = 0
	}
	return &List[V]{nodes: make([]listNode[V], 1, sizeHint+1)}
}

// Len returns the number of values in the list.
func (l *List[V]) Len() int { return l.n }

// PushFront adds v as the most recently used value and returns its handle.
func (l *List[V]) PushFront(v V) int32 {
	h := l.free
	if h != 0 {
		l.free = l.nodes[h].next
	} else {
		h = int32(len(l.nodes))
		l.nodes = append(l.nodes, listNode[V]{})
	}
	l.nodes[h].val = v
	l.linkFront(h)
	l.n++
	return h
}

// MoveToFront marks h as the most recently used value. It is unlink
// and linkFront written out over one load of the node slice: this is
// every cache hit, and the fused form measured faster on the vfs
// cached-read benchmark.
func (l *List[V]) MoveToFront(h int32) {
	nodes := l.nodes
	first := nodes[0].next
	if first == h {
		return
	}
	n := &nodes[h]
	nodes[n.prev].next = n.next
	nodes[n.next].prev = n.prev
	n.prev, n.next = 0, first
	nodes[first].prev = h
	nodes[0].next = h
}

// Back returns the handle of the least recently used value, or 0 when
// the list is empty.
func (l *List[V]) Back() int32 { return l.nodes[0].prev }

// Remove unlinks h, recycles its node and returns its value.
func (l *List[V]) Remove(h int32) V {
	l.unlink(h)
	n := &l.nodes[h]
	v := n.val
	var zero V
	n.val = zero
	n.next = l.free
	l.free = h
	l.n--
	return v
}

func (l *List[V]) linkFront(h int32) {
	nodes := l.nodes
	first := nodes[0].next
	n := &nodes[h]
	n.prev, n.next = 0, first
	nodes[first].prev = h
	nodes[0].next = h
}

func (l *List[V]) unlink(h int32) {
	nodes := l.nodes
	n := &nodes[h]
	nodes[n.prev].next = n.next
	nodes[n.next].prev = n.prev
}

// Cache is an LRU set of keys. It tracks recency only; byte accounting
// stays with the caller. The zero value is not usable; call New.
type Cache[K comparable] struct {
	index map[K]int32
	list  *List[K]
}

// New creates a cache whose index is pre-sized for sizeHint entries.
// The list grows as keys arrive, so a cache that never fills (a vfs
// proxy cache sized for a whole dataset, say) does not hold its full
// capacity in nodes.
func New[K comparable](sizeHint int) *Cache[K] {
	if sizeHint < 0 {
		sizeHint = 0
	}
	return &Cache[K]{index: make(map[K]int32, sizeHint), list: NewList[K](0)}
}

// Len returns the number of cached keys.
func (c *Cache[K]) Len() int { return c.list.Len() }

// Touch moves key to the front if present and reports whether it was.
func (c *Cache[K]) Touch(key K) bool {
	h, ok := c.index[key]
	if ok {
		c.list.MoveToFront(h)
	}
	return ok
}

// Insert adds key at the front (or just touches it if already present).
func (c *Cache[K]) Insert(key K) {
	if h, ok := c.index[key]; ok {
		c.list.MoveToFront(h)
		return
	}
	c.index[key] = c.list.PushFront(key)
}

// EvictOldest removes and returns the least recently used key; ok is
// false when the cache is empty.
func (c *Cache[K]) EvictOldest() (key K, ok bool) {
	h := c.list.Back()
	if h == 0 {
		return key, false
	}
	key = c.list.Remove(h)
	delete(c.index, key)
	return key, true
}

// Remove deletes key and reports whether it was present.
func (c *Cache[K]) Remove(key K) bool {
	h, ok := c.index[key]
	if ok {
		c.list.Remove(h)
		delete(c.index, key)
	}
	return ok
}
