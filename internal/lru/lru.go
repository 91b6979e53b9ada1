// Package lru is a minimal keyed least-recently-used table behind the
// serve layer's bounded session pool. It is deliberately not
// concurrency-safe — the pool already holds its own mutex — and
// deliberately not used by the run cache's shards, whose eviction must
// skip in-flight entries and account bytes (see
// exp.RunCache.evictLocked).
package lru

import "container/list"

// entry is one key/value slot on the recency list.
type entry[K comparable, V any] struct {
	key K
	val V
}

// Table maps keys to values, bounded at max entries with
// least-recently-used eviction (Get and Put both refresh recency).
type Table[K comparable, V any] struct {
	max int
	m   map[K]*list.Element
	l   *list.List // front = most recently used
}

// New returns an empty table bounded at max entries (max < 1 panics:
// every caller has a compile-time constant bound).
func New[K comparable, V any](max int) *Table[K, V] {
	if max < 1 {
		panic("lru: bound must be at least 1")
	}
	return &Table[K, V]{max: max, m: map[K]*list.Element{}, l: list.New()}
}

// Get returns the value for key and marks it most recently used.
func (t *Table[K, V]) Get(key K) (V, bool) {
	if el, ok := t.m[key]; ok {
		t.l.MoveToFront(el)
		return el.Value.(*entry[K, V]).val, true
	}
	var zero V
	return zero, false
}

// Put inserts (or refreshes) key -> val as most recently used, evicting
// the least-recently-used entries past the bound.
func (t *Table[K, V]) Put(key K, val V) {
	if el, ok := t.m[key]; ok {
		el.Value.(*entry[K, V]).val = val
		t.l.MoveToFront(el)
		return
	}
	t.m[key] = t.l.PushFront(&entry[K, V]{key: key, val: val})
	for t.l.Len() > t.max {
		oldest := t.l.Back()
		t.l.Remove(oldest)
		delete(t.m, oldest.Value.(*entry[K, V]).key)
	}
}

// Len returns the resident entry count.
func (t *Table[K, V]) Len() int { return t.l.Len() }

// Values returns the resident values, most recently used first.
func (t *Table[K, V]) Values() []V {
	out := make([]V, 0, t.l.Len())
	for el := t.l.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*entry[K, V]).val)
	}
	return out
}
