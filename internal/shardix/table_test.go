package shardix

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// item is a test element: its key plus a payload that tells versions of
// one key apart.
type item struct{ key, val uint64 }

func (it *item) ID() uint64 { return it.key }

type itemTable = Table[item, *item]

// TestTableMatchesMap drives random puts, replacements and deletes over a
// small key space, so slots are deleted, reused and compacted many times,
// and checks every key against a map after each step.
func TestTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var tab itemTable
	ref := map[uint64]*item{}
	if tab.Get(1) != nil {
		t.Fatal("zero table returned a value")
	}
	tab.Delete(1) // no slot array yet
	for step := 0; step < 20000; step++ {
		// Key 0 is an ordinary key, not a sentinel.
		key := uint64(rng.Intn(300))
		if rng.Intn(3) == 0 {
			tab.Delete(key)
			delete(ref, key)
		} else {
			it := &item{key: key, val: uint64(step)}
			tab.Put(it)
			ref[key] = it
		}
		if step%97 == 0 {
			for k := uint64(0); k < 300; k++ {
				if got := tab.Get(k); got != ref[k] {
					t.Fatalf("step %d: Get(%d) = %v, want %v", step, k, got, ref[k])
				}
			}
		}
	}
	seen := 0
	tab.Range(func(it *item) {
		if ref[it.key] != it {
			t.Fatalf("Range yielded %v, want %v", it, ref[it.key])
		}
		seen++
	})
	a := tab.slots.Load()
	if seen != len(ref) || a.live != len(ref) {
		t.Fatalf("Range saw %d keys and live = %d, want %d", seen, a.live, len(ref))
	}
	if len(a.slots) > 4*len(ref)+8 {
		t.Fatalf("%d slots for %d keys: deleted slots were not compacted", len(a.slots), len(ref))
	}
}

// TestTableRangeMutation: Range's callback may replace or delete the key of
// the element it is handed.
func TestTableRangeMutation(t *testing.T) {
	var tab itemTable
	for k := uint64(0); k < 100; k++ {
		tab.Put(&item{key: k})
	}
	tab.Range(func(it *item) {
		if it.key%2 == 0 {
			tab.Delete(it.key)
		} else {
			tab.Put(&item{key: it.key, val: 1})
		}
	})
	for k := uint64(0); k < 100; k++ {
		got := tab.Get(k)
		if (k%2 == 0 && got != nil) || (k%2 == 1 && (got == nil || got.val != 1)) {
			t.Fatalf("Get(%d) = %v after Range", k, got)
		}
	}
}

// TestTableGetNoAlloc pins the read path at zero allocations.
func TestTableGetNoAlloc(t *testing.T) {
	var tab itemTable
	for k := uint64(0); k < 1000; k++ {
		tab.Put(&item{key: k})
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		if tab.Get(500) == nil || tab.Get(5000) != nil {
			t.Fatal("wrong lookup result")
		}
	}); allocs != 0 {
		t.Fatalf("Get allocates %v per run, want 0", allocs)
	}
}

// TestTableConcurrentReaders runs lock-free readers against a writer that
// inserts, deletes and regrows. Keys below pinned stay present throughout
// and must always be found as the same element; churned keys must only
// ever read back an element with their own key, or nil. Run with -race.
func TestTableConcurrentReaders(t *testing.T) {
	const pinned, churned = 64, 4096
	var tab itemTable
	items := make([]item, pinned+churned)
	for k := range items {
		items[k].key = uint64(k)
	}
	for k := 0; k < pinned; k++ {
		tab.Put(&items[k])
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for !stop.Load() {
				k := uint64(rng.Intn(pinned + churned))
				got := tab.Get(k)
				switch {
				case k < pinned && got != &items[k]:
					t.Errorf("pinned key %d read %v", k, got)
					return
				case got != nil && got.key != k:
					t.Errorf("key %d read the element of key %d", k, got.key)
					return
				}
			}
		}(g)
	}
	var mu sync.Mutex // the writers' lock the table expects its caller to hold
	for round := 0; round < 4; round++ {
		for k := pinned; k < pinned+churned; k++ {
			mu.Lock()
			tab.Put(&items[k])
			mu.Unlock()
		}
		for k := pinned; k < pinned+churned; k++ {
			mu.Lock()
			tab.Delete(uint64(k))
			mu.Unlock()
		}
	}
	stop.Store(true)
	wg.Wait()
}
