package serve

import (
	"container/list"
	"sync"
	"time"
)

// entryOverhead is the fixed per-entry bookkeeping charge (list
// element, map slot, key string) added to every cached value's
// self-reported size, so a cache of many tiny entries still accounts
// for its real footprint.
const entryOverhead = 128

// Cache is a size-bounded LRU with single-flight request coalescing,
// keyed by fingerprint strings. It is the one caching primitive of the
// serving layer: the result, engine, basis and instance caches are
// four instances with different budgets.
//
// Do is the main entry point: a hit returns the cached value and
// promotes it; a miss runs build exactly once even under concurrent
// identical requests — later arrivals block on the first caller's
// in-flight build and share its value (coalescing), so a thundering
// herd of N identical cold requests costs one build, not N. Failed
// builds are not cached (every waiter sees the error; the next request
// retries).
//
// Eviction is strict LRU by byte budget: inserting past MaxBytes evicts
// from the cold end until the new entry fits. A single entry larger
// than the whole budget is admitted alone (the alternative — refusing
// it — would make oversized instances uncacheable and turn every
// request for them into a cold build with no visible signal).
type Cache struct {
	mu       sync.Mutex
	max      int64
	bytes    int64
	ll       *list.List // front = most recently used
	entries  map[string]*list.Element
	inflight map[string]*call
	hold     *buildHold // nil in production; see holdBuild

	hits, misses, coalesced, evictions uint64
}

// buildHold holds back the build of one key until a number of callers
// have coalesced onto it, or a deadline passes.
type buildHold struct {
	key       string
	followers int
	joined    int           // followers so far, guarded by Cache.mu
	ready     chan struct{} // closed when the last follower joins
	deadline  time.Duration
}

// holdBuild makes the next build of key wait, before it starts, until
// followers callers have coalesced onto it or deadline passes. It lets
// the load harness assemble a thundering herd in full however fast the
// build is; nothing in production sets it.
func (c *Cache) holdBuild(key string, followers int, deadline time.Duration) {
	c.mu.Lock()
	c.hold = &buildHold{key: key, followers: followers, ready: make(chan struct{}), deadline: deadline}
	c.mu.Unlock()
}

type entry struct {
	key  string
	val  any
	size int64
}

// call is one in-flight build shared by coalesced callers.
type call struct {
	done chan struct{}
	val  any
	size int64
	err  error
	hold *buildHold // the hold this build waits on, if any
}

// NewCache returns an empty cache bounded by maxBytes.
func NewCache(maxBytes int64) *Cache {
	return &Cache{
		max:      maxBytes,
		ll:       list.New(),
		entries:  make(map[string]*list.Element),
		inflight: make(map[string]*call),
	}
}

// Do returns the value for key, building it with build on a miss. The
// returned flags report how the value was obtained: hit (served from
// the cache), coalesced (this caller waited on another caller's
// in-flight build). Both false means this caller ran build itself.
// build's second return is the value's resident size in bytes.
func (c *Cache) Do(key string, build func() (any, int64, error)) (val any, hit, coalesced bool, err error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		v := el.Value.(*entry).val
		c.mu.Unlock()
		return v, true, false, nil
	}
	if cl, ok := c.inflight[key]; ok {
		c.coalesced++
		if h := cl.hold; h != nil {
			if h.joined++; h.joined == h.followers {
				close(h.ready)
			}
		}
		c.mu.Unlock()
		<-cl.done
		return cl.val, false, true, cl.err
	}
	cl := &call{done: make(chan struct{})}
	if h := c.hold; h != nil && h.key == key {
		cl.hold, c.hold = h, nil
	}
	c.inflight[key] = cl
	c.misses++
	c.mu.Unlock()

	if h := cl.hold; h != nil {
		timer := time.NewTimer(h.deadline)
		select {
		case <-h.ready:
		case <-timer.C:
		}
		timer.Stop()
	}
	cl.val, cl.size, cl.err = build()
	close(cl.done)

	c.mu.Lock()
	delete(c.inflight, key)
	if cl.err == nil {
		c.insertLocked(key, cl.val, cl.size)
	}
	c.mu.Unlock()
	return cl.val, false, false, cl.err
}

// Get peeks at key without building, promoting on a hit. It does not
// touch the hit/miss counters: Get serves opportunistic lookups (the
// warm-basis probe) whose misses are expected and would distort the
// hit rate.
func (c *Cache) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*entry).val, true
}

// Put inserts (or replaces) key directly — used by write-through
// paths, e.g. the solve path depositing an exported LP basis.
func (c *Cache) Put(key string, val any, size int64) {
	c.mu.Lock()
	c.insertLocked(key, val, size)
	c.mu.Unlock()
}

func (c *Cache) insertLocked(key string, val any, size int64) {
	size += entryOverhead
	if el, ok := c.entries[key]; ok {
		old := el.Value.(*entry)
		c.bytes += size - old.size
		old.val, old.size = val, size
		c.ll.MoveToFront(el)
	} else {
		c.entries[key] = c.ll.PushFront(&entry{key: key, val: val, size: size})
		c.bytes += size
	}
	for c.bytes > c.max && c.ll.Len() > 1 {
		back := c.ll.Back()
		e := back.Value.(*entry)
		c.ll.Remove(back)
		delete(c.entries, e.key)
		c.bytes -= e.size
		c.evictions++
	}
}

// CacheStats is a point-in-time snapshot of one cache's counters, as
// rendered by /statusz.
type CacheStats struct {
	Entries  int    `json:"entries"`
	Bytes    int64  `json:"bytes"`
	MaxBytes int64  `json:"max_bytes"`
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"`
	// Coalesced counts callers that waited on another caller's
	// in-flight build instead of running their own.
	Coalesced uint64 `json:"coalesced"`
	Evictions uint64 `json:"evictions"`
}

// Stats snapshots the cache's counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:   c.ll.Len(),
		Bytes:     c.bytes,
		MaxBytes:  c.max,
		Hits:      c.hits,
		Misses:    c.misses,
		Coalesced: c.coalesced,
		Evictions: c.evictions,
	}
}
