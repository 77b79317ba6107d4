package shardix

import (
	"math/bits"
	"sync/atomic"
)

// Keyed is a Table element pointer: the element carries its own fixed key.
type Keyed[V any] interface {
	*V
	ID() uint64
}

// Table is a uint64-keyed hash table of *V with lock-free reads: Get takes
// one atomic load per probed slot and never allocates. The caller
// serializes Put, Delete and Range under a mutex of its own. A write
// publishes one slot, amortized O(1); growth and compaction publish a new
// slot array whole, and a reader on the old array sees the table as it
// stood then. The zero value is empty and allocates nothing.
type Table[V any, P Keyed[V]] struct {
	slots atomic.Pointer[slotArray[V, P]]
}

// slotArray is linear probing over a power-of-two number of slots. A slot
// once filled is only overwritten (by an element or the deleted marker),
// never emptied, so a probe never stops short of its key's element.
type slotArray[V any, P Keyed[V]] struct {
	shift   uint // 64 - log2(len(slots)): the home slot is the top bits of Mix(key)
	slots   []atomic.Pointer[V]
	live    int // keys present; writer-side
	used    int // non-nil slots; writer-side
	deleted V   // its address marks a deleted slot
}

// Get returns the element stored under key, or nil.
//
//remicss:noalloc
func (t *Table[V, P]) Get(key uint64) *V {
	a := t.slots.Load()
	if a == nil {
		return nil
	}
	_, _, v := a.probe(key)
	return v
}

// Put stores v (non-nil) under its ID, replacing any element stored there.
func (t *Table[V, P]) Put(v *V) {
	a := t.slots.Load()
	if a == nil {
		a = &slotArray[V, P]{}
	}
	if 4*(a.used+1) > 3*len(a.slots) {
		a = t.rebuild(a)
	}
	at, free, _ := a.probe(P(v).ID())
	if at < 0 {
		at = free
		a.live++
		if a.slots[at].Load() == nil {
			a.used++
		}
	}
	a.slots[at].Store(v)
}

// Delete removes key.
func (t *Table[V, P]) Delete(key uint64) {
	if a := t.slots.Load(); a != nil {
		if at, _, _ := a.probe(key); at >= 0 {
			a.slots[at].Store(&a.deleted)
			a.live--
		}
	}
}

// Range calls fn for every element. fn may Put or Delete the key of the
// element it is given.
func (t *Table[V, P]) Range(fn func(v *V)) {
	if a := t.slots.Load(); a != nil {
		for i := range a.slots {
			if v := a.slots[i].Load(); v != nil && v != &a.deleted {
				fn(v)
			}
		}
	}
}

// rebuild publishes a new slot array holding old's elements, at most half
// full after the pending insert: a full table doubles, one filled with
// deleted slots is compacted.
func (t *Table[V, P]) rebuild(old *slotArray[V, P]) *slotArray[V, P] {
	next := &slotArray[V, P]{live: old.live, used: old.live}
	n := 8
	for n < 2*(next.live+1) {
		n <<= 1
	}
	next.shift = uint(64 - bits.TrailingZeros(uint(n)))
	next.slots = make([]atomic.Pointer[V], n)
	for i := range old.slots {
		if v := old.slots[i].Load(); v != nil && v != &old.deleted {
			_, free, _ := next.probe(P(v).ID())
			next.slots[free].Store(v)
		}
	}
	t.slots.Store(next)
	return next
}

// probe walks key's probe sequence. It returns the slot holding key and
// the element loaded from it, or -1 and nil, and the first slot an insert
// of key may take: a deleted slot or the nil slot that ends the sequence.
//
//remicss:noalloc
func (a *slotArray[V, P]) probe(key uint64) (at, free int, v *V) {
	mask := uint64(len(a.slots) - 1)
	free = -1
	for i := Mix(key) >> a.shift; ; i = (i + 1) & mask {
		v = a.slots[i].Load()
		if v != nil && v != &a.deleted {
			if P(v).ID() == key {
				return int(i), free, v
			}
			continue
		}
		if free < 0 {
			free = int(i)
		}
		if v == nil {
			return -1, free, nil
		}
	}
}
