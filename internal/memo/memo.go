// Package memo memoizes expensive, deterministic computations by key — the
// one-time cell characterizations every analysis shares.
package memo

import (
	"errors"
	"sync"
)

// errPanicked is what callers waiting on a computation get when it panicked;
// the computing caller sees the panic itself.
var errPanicked = errors.New("memo: computation panicked")

// Map memoizes values by key. The first request for a key computes its value
// while concurrent requests for the same key wait and share the result;
// requests for other keys proceed in parallel. A failed computation is not
// cached: the callers that waited on it get its error, and the next request
// computes again. The zero Map is ready to use and must not be copied.
type Map[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*entry[V]
}

type entry[V any] struct {
	done chan struct{} // closed once v and err are final
	v    V
	err  error
}

// Get returns the value for key, calling compute on the first request. The
// key must capture everything that shapes compute's result.
func (c *Map[K, V]) Get(key K, compute func() (V, error)) (V, error) {
	c.mu.Lock()
	if e, ok := c.m[key]; ok {
		c.mu.Unlock()
		<-e.done
		return e.v, e.err
	}
	if c.m == nil {
		c.m = make(map[K]*entry[V])
	}
	e := &entry[V]{done: make(chan struct{}), err: errPanicked}
	c.m[key] = e
	c.mu.Unlock()

	defer func() {
		if e.err != nil {
			c.mu.Lock()
			delete(c.m, key)
			c.mu.Unlock()
		}
		close(e.done)
	}()
	e.v, e.err = compute()
	return e.v, e.err
}
