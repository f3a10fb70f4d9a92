package flatmap

import (
	"math/rand"
	"slices"
	"testing"
)

// TestMatchesGoMap drives random puts, deletes and lookups over a small
// key range, so probe runs collide and wrap, and checks every key
// against a Go map after each step.
func TestMatchesGoMap(t *testing.T) {
	src := rand.New(rand.NewSource(1))
	m := Make[int32, int64](Int32, 0)
	ref := make(map[int32]int64)
	for step := 0; step < 20000; step++ {
		k := int32(src.Intn(300))
		switch src.Intn(3) {
		case 0, 1:
			v := src.Int63n(5) // 0 deletes
			m.Put(k, v)
			if v == 0 {
				delete(ref, k)
			} else {
				ref[k] = v
			}
		case 2:
			m.Delete(k)
			delete(ref, k)
		}
		if m.Len() != len(ref) {
			t.Fatalf("step %d: Len %d, want %d", step, m.Len(), len(ref))
		}
		if step%97 == 0 {
			for q := int32(0); q < 300; q++ {
				if got := m.Get(q); got != ref[q] {
					t.Fatalf("step %d: Get(%d) = %d, want %d", step, q, got, ref[q])
				}
			}
		}
	}
	keys := m.AppendKeys(nil)
	slices.Sort(keys)
	want := make([]int32, 0, len(ref))
	for k := range ref {
		want = append(want, k)
	}
	slices.Sort(want)
	if !slices.Equal(keys, want) {
		t.Fatalf("AppendKeys %v, want %v", keys, want)
	}
	m.Reset(0)
	if m.Len() != 0 || m.Get(keys[0]) != 0 {
		t.Fatal("Reset left keys behind")
	}
}

// TestPresentLookupAllocFree: looking up and overwriting present keys
// allocates nothing.
func TestPresentLookupAllocFree(t *testing.T) {
	m := Make[int32, int32](Int32, 1000)
	for k := int32(0); k < 1000; k++ {
		m.Put(k, k+1)
	}
	k := int32(0)
	if n := testing.AllocsPerRun(500, func() {
		m.Put(k%1000, m.Get(k%1000)+1)
		k++
	}); n != 0 {
		t.Fatalf("present-key lookup allocates %.1f/op, want 0", n)
	}
}
