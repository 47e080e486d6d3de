package ids

import "testing"

// TestColumnsRoundTrip: a frozen table compiled from an interner's Columns must agree
// with the original on every ID, key, and lookup — the contract segment
// serialization depends on.
func TestColumnsRoundTrip(t *testing.T) {
	in := NewInterner[string]()
	keys := []string{"zebra", "", "alpha", "middle", "alpha2", "zz"}
	want := make(map[string]uint32, len(keys))
	for _, k := range keys {
		want[k] = in.Intern(k)
	}

	fr, err := FromColumns[string](in.Columns())
	if err != nil {
		t.Fatalf("FromColumns: %v", err)
	}
	if fr.Len() != in.keyCount() {
		t.Fatalf("Len = %d, want %d", fr.Len(), in.keyCount())
	}
	for k, id := range want {
		if got := fr.Key(id); got != k {
			t.Errorf("Key(%d) = %q, want %q", id, got, k)
		}
		if got, ok := fr.Lookup(k); !ok || got != id {
			t.Errorf("Lookup(%q) = %d,%v, want %d,true", k, got, ok, id)
		}
	}
	if _, ok := fr.Lookup("unseen"); ok {
		t.Error("Lookup(unseen) found a key the frozen table never held")
	}
	if got := fr.Key(uint32(len(keys) + 5)); got != "" {
		t.Errorf("Key(out of range) = %q, want zero value", got)
	}
}

// TestFromColumnsValidates: malformed column frames must be rejected.
func TestFromColumnsValidates(t *testing.T) {
	cases := map[string]Columns{
		"off not starting at 0": {Off: []uint32{1, 2}, Blob: []byte("ab"), Sorted: []uint32{0}},
		"off end != blob len":   {Off: []uint32{0, 5}, Blob: []byte("ab"), Sorted: []uint32{0}},
		"sorted wrong length":   {Off: []uint32{0, 1}, Blob: []byte("a"), Sorted: nil},
		"off decreasing":        {Off: []uint32{0, 2, 1}, Blob: []byte("ab"), Sorted: []uint32{0, 1}},
	}
	for name, c := range cases {
		if _, err := FromColumns[string](c); err == nil {
			t.Errorf("%s: FromColumns accepted %+v", name, c)
		}
	}
}

// TestColumnsEmpty: an empty interner round-trips.
func TestColumnsEmpty(t *testing.T) {
	fr, err := FromColumns[string](NewInterner[string]().Columns())
	if err != nil {
		t.Fatalf("FromColumns(empty): %v", err)
	}
	if fr.Len() != 0 {
		t.Errorf("Len = %d, want 0", fr.Len())
	}
	if _, ok := fr.Lookup("x"); ok {
		t.Error("Lookup on an empty frozen table found a key")
	}
}
