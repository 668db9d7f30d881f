package server

import "container/list"

// lru is the fixed-capacity least-recently-used map behind both server
// caches. It is not safe for concurrent use: each owner guards it with
// its own mutex and keeps its own hit/miss counters.
type lru[K comparable, V any] struct {
	cap   int
	items map[K]*list.Element // values are *lruItem[K, V]
	order *list.List          // front = most recently used
}

type lruItem[K comparable, V any] struct {
	key K
	val V
}

func newLRU[K comparable, V any](capacity int) *lru[K, V] {
	return &lru[K, V]{cap: capacity, items: make(map[K]*list.Element), order: list.New()}
}

// get returns the value under k and marks it most recently used.
func (c *lru[K, V]) get(k K) (V, bool) {
	el, ok := c.items[k]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruItem[K, V]).val, true
}

// put stores v under k as the most recently used value. The first writer
// wins: when k is already present, its value is kept and only touched.
// When the store takes the map past its capacity, the least recently used
// value is evicted and handed back.
func (c *lru[K, V]) put(k K, v V) (evicted V, ok bool) {
	if el, found := c.items[k]; found {
		c.order.MoveToFront(el)
		return evicted, false
	}
	c.items[k] = c.order.PushFront(&lruItem[K, V]{key: k, val: v})
	if c.order.Len() <= c.cap {
		return evicted, false
	}
	it := c.order.Remove(c.order.Back()).(*lruItem[K, V])
	delete(c.items, it.key)
	return it.val, true
}

// each calls f on every value, most recently used first.
func (c *lru[K, V]) each(f func(V)) {
	for el := c.order.Front(); el != nil; el = el.Next() {
		f(el.Value.(*lruItem[K, V]).val)
	}
}
