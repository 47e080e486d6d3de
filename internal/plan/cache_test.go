package plan

import (
	"testing"

	"magnet/internal/itemset"
)

func idset(xs ...uint32) itemset.Set { return itemset.FromSorted(xs) }

func TestCacheLRUEviction(t *testing.T) {
	c := newCache(2)
	if ev := c.put("a", idset(1)); ev != 0 {
		t.Fatalf("put a evicted %d", ev)
	}
	if ev := c.put("b", idset(2)); ev != 0 {
		t.Fatalf("put b evicted %d", ev)
	}
	// Touch a so b becomes the LRU entry.
	if _, ok := c.get("a"); !ok {
		t.Fatal("a missing after put")
	}
	if ev := c.put("c", idset(3)); ev != 1 {
		t.Fatalf("put c evicted %d entries, want 1", ev)
	}
	if _, ok := c.get("b"); ok {
		t.Error("b survived eviction but was least recently used")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.get(k); !ok {
			t.Errorf("%s evicted but was recently used", k)
		}
	}
}

func TestCacheOverwriteDoesNotGrow(t *testing.T) {
	c := newCache(4)
	c.put("a", idset(1))
	c.put("a", idset(1, 2))
	if n := c.len(); n != 1 {
		t.Fatalf("len = %d after double put of one key", n)
	}
	res, ok := c.get("a")
	if !ok || !res.Equal(idset(1, 2)) {
		t.Errorf("get a = %v %v, want the overwritten result", res.Slice(), ok)
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
