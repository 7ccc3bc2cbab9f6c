package front

import (
	"math"
	"sync"

	"negfsim/internal/jobs"
)

// cache is the content-addressed result store: completed runs keyed by
// Key.ID, with an LRU bound and a per-family index for warm-start lookup.
// An entry holds the full artifact set of a finished run — iteration log,
// result document and gob checkpoint — so a cache hit serves status, stream
// replay, result and checkpoint without touching a worker.
type cache struct {
	mu      sync.Mutex
	max     int
	entries map[string]*run
	lru     []string            // least recently used first
	family  map[string][]string // Family → IDs, for warm-start candidates
}

func newCache(max int) *cache {
	return &cache{
		max:     max,
		entries: make(map[string]*run),
		family:  make(map[string][]string),
	}
}

// get returns the cached run for id, refreshing its LRU position.
func (c *cache) get(id string) (*run, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.entries[id]
	if ok {
		c.touch(id)
	}
	return r, ok
}

// touch moves id to the most-recently-used end. Caller holds c.mu.
func (c *cache) touch(id string) {
	for i, v := range c.lru {
		if v == id {
			c.lru = append(append(c.lru[:i:i], c.lru[i+1:]...), id)
			return
		}
	}
	c.lru = append(c.lru, id)
}

// put stores a completed run, evicting the least recently used entries past
// the bound. Only succeeded runs are cached: failures and cancellations must
// re-execute, not poison the address.
func (c *cache) put(r *run) {
	if r.Snapshot().State != jobs.Succeeded {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	id := r.key.ID
	if _, exists := c.entries[id]; !exists {
		c.family[r.key.Family] = append(c.family[r.key.Family], id)
	}
	c.entries[id] = r
	c.touch(id)
	for len(c.entries) > c.max && len(c.lru) > 0 {
		victim := c.lru[0]
		c.lru = c.lru[1:]
		old, ok := c.entries[victim]
		if !ok {
			continue
		}
		delete(c.entries, victim)
		fam := c.family[old.key.Family]
		for i, v := range fam {
			if v == victim {
				c.family[old.key.Family] = append(fam[:i:i], fam[i+1:]...)
				break
			}
		}
		if len(c.family[old.key.Family]) == 0 {
			delete(c.family, old.key.Family)
		}
		obsCacheEvictions.Inc()
	}
}

// nearest returns the cached run in key's family (same device, same solver
// settings, different bias) with a checkpoint and the smallest bias
// distance — the warm-start candidate. Nil when the family has no other
// cached member.
func (c *cache) nearest(key Key) *run {
	c.mu.Lock()
	defer c.mu.Unlock()
	var best *run
	bestD := math.Inf(1)
	for _, id := range c.family[key.Family] {
		if id == key.ID {
			continue
		}
		r, ok := c.entries[id]
		if !ok || len(r.checkpoint) == 0 {
			continue
		}
		if d := math.Abs(r.key.Bias - key.Bias); d < bestD {
			best, bestD = r, d
		}
	}
	return best
}

// len returns the number of cached entries.
func (c *cache) len() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return int64(len(c.entries))
}
