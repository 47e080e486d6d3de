package ids

import (
	"fmt"
	"sync"
	"testing"
)

// keyCount returns the number of interned keys; valid IDs are
// [0, keyCount).
func (in *Interner[K]) keyCount() int {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return len(in.keys)
}

func TestInternStable(t *testing.T) {
	in := NewInterner[string]()
	a := in.Intern("a")
	b := in.Intern("b")
	if a == b {
		t.Fatalf("distinct keys share ID %d", a)
	}
	if got := in.Intern("a"); got != a {
		t.Fatalf("re-Intern(a) = %d, want %d", got, a)
	}
	if in.keyCount() != 2 {
		t.Fatalf("Len = %d, want 2", in.keyCount())
	}
	if id, ok := lookup(in, "b"); !ok || id != b {
		t.Fatalf("Lookup(b) = %d,%v", id, ok)
	}
	if _, ok := lookup(in, "c"); ok {
		t.Fatal("Lookup(c) found unknown key")
	}
	if in.Key(a) != "a" || in.Key(b) != "b" {
		t.Fatal("Key round-trip broken")
	}
	if in.Key(99) != "" {
		t.Fatal("Key(unknown) should be zero value")
	}
}

func TestAppendKeys(t *testing.T) {
	in := NewInterner[string]()
	for i := 0; i < 5; i++ {
		in.Intern(fmt.Sprintf("k%d", i))
	}
	tab, err := FromColumns[string](in.Columns())
	if err != nil {
		t.Fatal(err)
	}
	got := tab.AppendKeys([]string{"pre"}, []uint32{3, 0, 4, 100})
	want := []string{"pre", "k3", "k0", "k4"} // unknown IDs skipped
	if len(got) != len(want) {
		t.Fatalf("AppendKeys = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("AppendKeys = %v, want %v", got, want)
		}
	}
}

// TestConcurrentIntern races interning against Lookup/Key/Len
// from many goroutines; run under -race this verifies the locking protocol.
func TestConcurrentIntern(t *testing.T) {
	in := NewInterner[string]()
	const workers = 8
	const perWorker = 500
	var wg sync.WaitGroup
	ids := make([][]uint32, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ids[w] = make([]uint32, 0, perWorker)
			for i := 0; i < perWorker; i++ {
				// Heavy overlap across workers: every key is interned by
				// several goroutines at once.
				k := fmt.Sprintf("key-%d", i%100)
				id := in.Intern(k)
				ids[w] = append(ids[w], id)
				if got, ok := lookup(in, k); !ok || got != id {
					t.Errorf("Lookup(%s) = %d,%v after Intern = %d", k, got, ok, id)
					return
				}
				if in.Key(id) != k {
					t.Errorf("Key(%d) = %q, want %q", id, in.Key(id), k)
					return
				}
				_ = in.keyCount()
			}
		}(w)
	}
	wg.Wait()
	if in.keyCount() != 100 {
		t.Fatalf("Len = %d, want 100", in.keyCount())
	}
	// All workers must agree on every key's ID.
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("key-%d", i)
		id, ok := lookup(in, k)
		if !ok {
			t.Fatalf("key %s lost", k)
		}
		if in.Key(id) != k {
			t.Fatalf("Key(%d) = %q, want %q", id, in.Key(id), k)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// lookup returns the ID of k without interning, and whether k is known.
func lookup[K ~string](in *Interner[K], k K) (uint32, bool) {
	in.mu.RLock()
	defer in.mu.RUnlock()
	id, ok := in.ids[k]
	return id, ok
}
