package plan

import (
	"testing"

	"magnet/internal/itemset"
)

func idset(xs ...uint32) itemset.Set { return itemset.FromSorted(xs) }

func TestCacheLRUEviction(t *testing.T) {
	c := newCache(2)
	const ep = 1
	if ev := c.put(ep, "a", idset(1)); ev != 0 {
		t.Fatalf("put a evicted %d", ev)
	}
	if ev := c.put(ep, "b", idset(2)); ev != 0 {
		t.Fatalf("put b evicted %d", ev)
	}
	// Touch a so b becomes the LRU entry.
	if _, ok := c.get(ep, "a"); !ok {
		t.Fatal("a missing after put")
	}
	if ev := c.put(ep, "c", idset(3)); ev != 1 {
		t.Fatalf("put c evicted %d entries, want 1", ev)
	}
	if _, ok := c.get(ep, "b"); ok {
		t.Error("b survived eviction but was least recently used")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.get(ep, k); !ok {
			t.Errorf("%s evicted but was recently used", k)
		}
	}
}

func TestCacheOverwriteDoesNotGrow(t *testing.T) {
	c := newCache(4)
	const ep = 1
	c.put(ep, "a", idset(1))
	c.put(ep, "a", idset(1, 2))
	if n := c.len(); n != 1 {
		t.Fatalf("len = %d after double put of one key", n)
	}
	res, ok := c.get(ep, "a")
	if !ok || !res.Equal(idset(1, 2)) {
		t.Errorf("get a = %v %v, want the overwritten result", res.Slice(), ok)
	}
}

// A lookup under a newer graph version drops the whole resident
// generation — stale navigation results must never survive a mutation.
func TestCacheEpochInvalidation(t *testing.T) {
	c := newCache(8)
	c.put(1, "a", idset(1))
	c.put(1, "b", idset(2))

	for _, next := range []uint64{2, 3} {
		if _, ok := c.get(next, "a"); ok {
			t.Errorf("version %d: stale entry served across generations", next)
		}
		if n := c.len(); n != 0 {
			t.Errorf("version %d: %d stale entries resident, want 0", next, n)
		}
		c.put(next, "a", idset(3))
		if res, ok := c.get(next, "a"); !ok || !res.Equal(idset(3)) {
			t.Errorf("version %d: refill not served back", next)
		}
	}
}

func TestNewPlannerCapacityModes(t *testing.T) {
	if pl := New(-1); pl != nil {
		t.Error("negative capacity should disable the planner (nil)")
	}
	if pl := New(0); pl == nil || pl.cache.cap != DefaultCacheSize {
		t.Error("zero capacity should build a DefaultCacheSize cache")
	}
	if pl := New(7); pl.cache.cap != 7 {
		t.Errorf("cache capacity %d, want 7", pl.cache.cap)
	}
}
