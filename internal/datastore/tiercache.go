package datastore

import (
	"container/list"
	"sync"
	"sync/atomic"

	"campuslab/internal/obs"
	"campuslab/internal/packet"
)

// The tier cache: one bytes-bounded segmented LRU over what cold queries
// decode — inflated data-column blocks, keyed by (segment seq, block
// index), decoded summary stripes, keyed by seq and stripe, and segment
// directories (segdir.go), keyed by seq alone.
// TierPolicy.CacheBytes is the one budget both kinds share, each entry
// charged its exact size; 0 (the default) disables caching entirely and
// every query decodes what it needs and discards it.
//
// The policy is scan-resistant. A new entry enters a probation segment; a
// second touch (a hit, or a racing fill that finds it) promotes it to a
// protected segment capped at protectedFifths/5 of the budget, whose
// overflow is demoted back to probation's most recently used end. Victims
// come from probation's cold end first, so a one-pass read larger than
// the budget — a uniform cold window — cycles through probation and
// leaves the blocks and directories that queries reuse in place. A plain
// LRU let such windows flush the working set: on query_mix it inflated
// 1 842 blocks (~81 MB) and rebuilt 12 directories a round, where this
// policy inflates 1 306 (~56 MB) and rebuilds none.
//
// Segment files are immutable and seqs are never reused, so a cached
// entry can never go stale — invalidation (on compact/retain, when
// segment files are replaced or deleted) exists only to release memory
// promptly, not for correctness.

// Cache traffic metrics for /metrics. Counters are also mirrored
// per-tier (tierCache fields) so tests and labd STATS can diff one
// store without scraping the process registry. Directory traffic has its
// own series: the cache_* hit/miss/bytes/entries series keep meaning
// decoded blocks and stripes.
var (
	obsTierCacheHits      = obs.Default.Counter("campuslab_tier_cache_hits_total")
	obsTierCacheMisses    = obs.Default.Counter("campuslab_tier_cache_misses_total")
	obsTierCacheEvictions = obs.Default.Counter("campuslab_tier_cache_evictions_total")
	obsTierCacheBytes     = obs.Default.Gauge("campuslab_tier_cache_bytes")
	obsTierCacheEntries   = obs.Default.Gauge("campuslab_tier_cache_entries")
	obsTierDirHits        = obs.Default.Counter("campuslab_tier_dir_hits_total")
	obsTierDirMisses      = obs.Default.Counter("campuslab_tier_dir_misses_total")
	obsTierDirBytes       = obs.Default.Gauge("campuslab_tier_dir_bytes")
)

// blockKey identifies one cache entry: the segment's immutable file
// sequence number plus the block index within its data column, dirBlock
// for the segment's directory, or stripeKey's index for a summary stripe.
type blockKey struct {
	seq   uint64
	block int
}

const dirBlock = -1

// stripeKey is summary stripe st's key: the indexes below dirBlock.
func stripeKey(seq uint64, st int) blockKey { return blockKey{seq, dirBlock - 1 - st} }

// protectedFifths caps the protected segment at that many fifths of the
// budget; probation keeps at least the rest for new entries.
const protectedFifths = 4

// cacheEnt holds a decoded block, a decoded summary stripe or, under a
// dirBlock key, a directory.
type cacheEnt struct {
	key       blockKey
	buf       []byte
	sums      []packet.Summary
	dir       *segDir
	protected bool // in the protected segment, else in probation
}

func (e *cacheEnt) size() int64 {
	if e.dir != nil {
		return e.dir.bytes
	}
	return int64(len(e.buf)) + summaryBytes*int64(len(e.sums))
}

// tierCache is the bounded segmented LRU. One instance per tier; all
// methods are safe for concurrent use.
type tierCache struct {
	mu        sync.Mutex
	max       int64
	protMax   int64 // protected segment's cap
	bytes     int64 // decoded blocks and stripes
	dirBytes  int64 // directories; bytes+dirBytes <= max
	protBytes int64 // protected entries of either kind; <= protMax
	dirs      int
	probation list.List // front = most recently used
	protected list.List // front = most recently used
	entries   map[blockKey]*list.Element

	hits      atomic.Uint64
	misses    atomic.Uint64
	dirHits   atomic.Uint64
	dirMisses atomic.Uint64
	evictions atomic.Uint64
}

func newTierCache(maxBytes int64) *tierCache {
	return &tierCache{
		max:     maxBytes,
		protMax: maxBytes / 5 * protectedFifths,
		entries: make(map[blockKey]*list.Element),
	}
}

// touchLocked records a second (or later) use of e: a probation entry is
// promoted to protected, demoting protected's least recently used entries
// to probation's front while protected is over its cap; a protected entry
// becomes its segment's most recently used. Caller holds c.mu.
func (c *tierCache) touchLocked(e *list.Element) *cacheEnt {
	ent := e.Value.(*cacheEnt)
	if ent.protected {
		c.protected.MoveToFront(e)
		return ent
	}
	c.probation.Remove(e)
	ent.protected = true
	c.protBytes += ent.size()
	c.entries[ent.key] = c.protected.PushFront(ent)
	for c.protBytes > c.protMax {
		back := c.protected.Back()
		old := c.protected.Remove(back).(*cacheEnt)
		old.protected = false
		c.protBytes -= old.size()
		c.entries[old.key] = c.probation.PushFront(old)
	}
	return ent
}

// lookup returns k's entry, counting the touch.
func (c *tierCache) lookup(k blockKey) *cacheEnt {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[k]
	if !ok {
		return nil
	}
	return c.touchLocked(e)
}

// getEnt returns k's decoded block or stripe, counting a hit or a miss.
func (c *tierCache) getEnt(k blockKey) *cacheEnt {
	ent := c.lookup(k)
	if ent == nil {
		c.misses.Add(1)
		obsTierCacheMisses.Inc()
		return nil
	}
	c.hits.Add(1)
	obsTierCacheHits.Inc()
	return ent
}

func (c *tierCache) get(k blockKey) ([]byte, bool) {
	if ent := c.getEnt(k); ent != nil {
		return ent.buf, true
	}
	return nil, false
}

func (c *tierCache) getStripe(k blockKey) ([]packet.Summary, bool) {
	if ent := c.getEnt(k); ent != nil {
		return ent.sums, true
	}
	return nil, false
}

// getDir returns the resident directory of segment seq.
func (c *tierCache) getDir(seq uint64) (*segDir, bool) {
	ent := c.lookup(blockKey{seq, dirBlock})
	if ent == nil {
		c.dirMisses.Add(1)
		obsTierDirMisses.Inc()
		return nil, false
	}
	c.dirHits.Add(1)
	obsTierDirHits.Inc()
	return ent.dir, true
}

// put admits one decoded block.
func (c *tierCache) put(k blockKey, buf []byte) {
	c.admit(&cacheEnt{key: k, buf: buf})
}

// putStripe admits one decoded summary stripe.
func (c *tierCache) putStripe(k blockKey, sums []packet.Summary) {
	c.admit(&cacheEnt{key: k, sums: sums})
}

// putDir admits a freshly built directory and returns the one to use: the
// incumbent when a racing build got there first, d itself otherwise
// (admitted or not).
func (c *tierCache) putDir(seq uint64, d *segDir) *segDir {
	if ent := c.admit(&cacheEnt{key: blockKey{seq, dirBlock}, dir: d}); ent != nil {
		return ent.dir
	}
	return d
}

// account adds (sign +1) or removes (sign -1) one entry's footprint.
// Caller holds c.mu.
func (c *tierCache) account(ent *cacheEnt, sign int64) {
	if ent.dir != nil {
		c.dirBytes += sign * ent.size()
		c.dirs += int(sign)
	} else {
		c.bytes += sign * ent.size()
	}
	if ent.protected {
		c.protBytes += sign * ent.size()
	}
}

// removeLocked unlinks e from its segment and the map. Caller holds c.mu.
func (c *tierCache) removeLocked(e *list.Element) {
	ent := e.Value.(*cacheEnt)
	if ent.protected {
		c.protected.Remove(e)
	} else {
		c.probation.Remove(e)
	}
	delete(c.entries, ent.key)
	c.account(ent, -1)
}

// admit inserts ent at probation's front, evicting until the budget holds
// — probation's cold end first, then protected's, never ent itself — and
// returns the resident entry for its key: the incumbent (touched) when a
// racing fill got there first, nil when ent is larger than the whole
// budget and was not admitted.
func (c *tierCache) admit(ent *cacheEnt) *cacheEnt {
	if ent.size() > c.max {
		return nil
	}
	c.mu.Lock()
	if e, ok := c.entries[ent.key]; ok {
		inc := c.touchLocked(e)
		c.mu.Unlock()
		return inc
	}
	c.entries[ent.key] = c.probation.PushFront(ent)
	c.account(ent, +1)
	evicted := uint64(0)
	for c.bytes+c.dirBytes > c.max {
		victim := c.probation.Back()
		if victim.Value.(*cacheEnt) == ent {
			victim = c.protected.Back()
		}
		c.removeLocked(victim)
		evicted++
	}
	c.publishLocked()
	c.mu.Unlock()
	if evicted > 0 {
		c.evictions.Add(evicted)
		obsTierCacheEvictions.Add(evicted)
	}
	return ent
}

// dropSegs invalidates every block and the directory of the given segment
// seqs — called when compaction or retention removes their files.
func (c *tierCache) dropSegs(seqs map[uint64]bool) {
	if len(seqs) == 0 {
		return
	}
	c.mu.Lock()
	for k, e := range c.entries {
		if seqs[k.seq] {
			c.removeLocked(e)
		}
	}
	c.publishLocked()
	c.mu.Unlock()
}

func (c *tierCache) publishLocked() {
	obsTierCacheBytes.Set(float64(c.bytes))
	obsTierCacheEntries.Set(float64(len(c.entries) - c.dirs))
	obsTierDirBytes.Set(float64(c.dirBytes))
}

// size reports the decoded blocks' and stripes' resident footprint.
func (c *tierCache) size() (bytes int64, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes, len(c.entries) - c.dirs
}

// dirSize reports the directories' resident footprint.
func (c *tierCache) dirSize() (bytes int64, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dirBytes, c.dirs
}
