package memo

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestMapComputesOncePerKey: concurrent first requests for one key share a
// single computation and its value.
func TestMapComputesOncePerKey(t *testing.T) {
	const callers = 16
	var (
		m       Map[string, int]
		calls   atomic.Int32
		arrived atomic.Int32
		wg      sync.WaitGroup
	)
	allArrived := make(chan struct{})
	got := make([]int, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if arrived.Add(1) == callers {
				close(allArrived)
			}
			v, err := m.Get("k", func() (int, error) {
				calls.Add(1)
				// Hold the computation open until every caller has asked,
				// so most of them wait on it rather than hit a finished
				// entry.
				<-allArrived
				return 42, nil
			})
			if err != nil {
				t.Error(err)
			}
			got[i] = v
		}(i)
	}
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Errorf("computed %d times, want 1", n)
	}
	for i, v := range got {
		if v != 42 {
			t.Errorf("caller %d got %d, want 42", i, v)
		}
	}
}

// TestMapKeysDoNotBlockEachOther: a slow computation for one key does not
// hold up a request for another.
func TestMapKeysDoNotBlockEachOther(t *testing.T) {
	var m Map[string, int]
	started, release := make(chan struct{}), make(chan struct{})
	slowDone := make(chan struct{})
	go func() {
		defer close(slowDone)
		if _, err := m.Get("slow", func() (int, error) {
			close(started)
			<-release
			return 1, nil
		}); err != nil {
			t.Error(err)
		}
	}()
	<-started

	fastDone := make(chan int, 1)
	go func() {
		v, err := m.Get("fast", func() (int, error) { return 2, nil })
		if err != nil {
			t.Error(err)
		}
		fastDone <- v
	}()
	select {
	case v := <-fastDone:
		if v != 2 {
			t.Errorf("fast key got %d, want 2", v)
		}
	case <-time.After(10 * time.Second):
		t.Error("a request for another key waited on the slow computation")
	}
	close(release)
	<-slowDone
}

// TestMapDoesNotCacheFailures: an error or a panic leaves the key uncached,
// so the next request computes again.
func TestMapDoesNotCacheFailures(t *testing.T) {
	var m Map[int, string]
	boom := errors.New("boom")
	if _, err := m.Get(1, func() (string, error) { return "", boom }); !errors.Is(err, boom) {
		t.Fatalf("first request: err %v, want %v", err, boom)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the computing caller did not see the panic")
			}
		}()
		m.Get(1, func() (string, error) { panic("numerics") })
	}()
	v, err := m.Get(1, func() (string, error) { return "ok", nil })
	if err != nil || v != "ok" {
		t.Fatalf("after failures: got %q, %v; want ok", v, err)
	}
	v, err = m.Get(1, func() (string, error) { return "recomputed", nil })
	if err != nil || v != "ok" {
		t.Fatalf("success was not cached: got %q, %v", v, err)
	}
}
