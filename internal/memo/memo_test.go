package memo

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitFor polls cond until it holds, failing the test after a generous
// deadline. The flight tests use it to order goroutines by what the
// table has counted.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSingleFlight is the -race proof of the mechanism: many goroutines
// look up overlapping keys; every key's synthesis must run exactly once
// and every caller must observe the same shared instance.
func TestSingleFlight(t *testing.T) {
	const (
		workers = 16
		keys    = 8
		rounds  = 25
	)
	tb := NewTable[int, *int](4, 1, nil)
	var runs [keys]atomic.Int32
	got := make([][]*int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = make([]*int, keys)
			for r := 0; r < rounds; r++ {
				for k := 0; k < keys; k++ {
					v, err := tb.Do(0, uint64(k), k, func() (*int, error) {
						runs[k].Add(1)
						x := k
						return &x, nil
					})
					if err != nil {
						t.Error(err)
						return
					}
					if got[w][k] == nil {
						got[w][k] = v
					} else if got[w][k] != v {
						t.Errorf("worker %d key %d: instance changed between calls", w, k)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for k := 0; k < keys; k++ {
		if n := runs[k].Load(); n != 1 {
			t.Errorf("key %d synthesized %d times, want 1", k, n)
		}
		for w := 1; w < workers; w++ {
			if got[w][k] != got[0][k] {
				t.Errorf("key %d: workers observed different instances", k)
				break
			}
		}
	}
	s := tb.Stats(0)
	if s.Misses != keys {
		t.Errorf("misses = %d, want %d", s.Misses, keys)
	}
	if want := uint64(workers*rounds*keys - keys); s.Hits != want {
		t.Errorf("hits = %d, want %d", s.Hits, want)
	}
	if tb.Len() != keys {
		t.Errorf("Len = %d, want %d", tb.Len(), keys)
	}
}

func TestErrorNotCached(t *testing.T) {
	tb := NewTable[int, int](1, 1, nil)
	boom := errors.New("boom")
	var runs int
	synth := func() (int, error) {
		runs++
		if runs == 1 {
			return 0, boom
		}
		return 7, nil
	}
	if _, err := tb.Do(0, 0, 1, synth); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	v, err := tb.Do(0, 0, 1, synth)
	if err != nil || v != 7 {
		t.Fatalf("retry after error: v=%d err=%v", v, err)
	}
	if runs != 2 {
		t.Errorf("synthesis ran %d times, want 2 (errors must not be cached)", runs)
	}
}

// TestFailedFlightReruns: a waiter that joined a flight which then fails
// never sees the owner's error. It re-runs its own synthesis, so the
// error it returns names its own structure.
func TestFailedFlightReruns(t *testing.T) {
	tb := NewTable[int, int](1, 1, nil)
	release := make(chan struct{})
	ownerErr, waiterErr := errors.New("owner"), errors.New("waiter")
	ownerDone := make(chan error, 1)
	go func() {
		_, err := tb.Do(0, 0, 1, func() (int, error) {
			<-release
			return 0, ownerErr
		})
		ownerDone <- err
	}()
	waitFor(t, "the owner's flight", func() bool { return tb.Len() == 1 })
	waiterDone := make(chan error, 1)
	go func() {
		_, err := tb.Do(0, 0, 1, func() (int, error) { return 0, waiterErr })
		waiterDone <- err
	}()
	waitFor(t, "the waiter to join", func() bool { return tb.Stats(0).Shared == 1 })
	close(release)
	if err := <-ownerDone; err != ownerErr {
		t.Errorf("owner got %v, want its own error", err)
	}
	if err := <-waiterDone; err != waiterErr {
		t.Errorf("waiter got %v, want its own re-run's error", err)
	}
	if s := tb.Stats(0); s != (Stats{Shared: 1, Bypassed: 1}) {
		t.Errorf("counters = %+v, want 1 shared and 1 bypassed only", s)
	}
	if tb.Len() != 0 {
		t.Errorf("failed flight left %d entries", tb.Len())
	}
}

func TestDisabledBypasses(t *testing.T) {
	tb := NewTable[int, int](1, 1, nil)
	if prev := tb.SetEnabled(false); !prev {
		t.Error("a new table should be enabled")
	}
	if prev := tb.SetEnabled(false); prev {
		t.Error("table still enabled after disabling")
	}
	var runs int
	synth := func() (int, error) { runs++; return 1, nil }
	for i := 0; i < 3; i++ {
		if _, err := tb.Do(0, 0, 1, synth); err != nil {
			t.Fatal(err)
		}
	}
	if runs != 3 {
		t.Errorf("synthesis ran %d times with cache disabled, want 3", runs)
	}
	if s := tb.Stats(0); s.Bypassed != 3 || s.Hits != 0 || s.Misses != 0 {
		t.Errorf("counters = %+v, want 3 bypassed only", s)
	}
	if tb.Len() != 0 {
		t.Errorf("Len = %d, want 0 (disabled runs must not populate)", tb.Len())
	}
}

func TestPanicUnblocksAndRetries(t *testing.T) {
	tb := NewTable[int, int](1, 1, nil)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected the synthesis panic to propagate")
			}
		}()
		tb.Do(0, 0, 1, func() (int, error) { panic("model fault") })
	}()
	// The panicked entry must be gone: a later call runs a real synthesis.
	v, err := tb.Do(0, 0, 1, func() (int, error) { return 5, nil })
	if err != nil || v != 5 {
		t.Fatalf("after panic: v=%d err=%v", v, err)
	}
	if tb.Len() != 1 {
		t.Errorf("Len = %d, want 1", tb.Len())
	}
}

// TestResetDuringFlight: Reset zeroes the counters and empties the
// table at once. A flight that straddles it still completes for its
// waiters, but neither its value nor its failure touches the key's
// newer entry.
func TestResetDuringFlight(t *testing.T) {
	tb := NewTable[int, int](1, 1, nil)
	release := make(chan struct{})
	ownerDone := make(chan error, 1)
	go func() {
		_, err := tb.Do(0, 0, 1, func() (int, error) {
			<-release
			return 0, errors.New("stale flight")
		})
		ownerDone <- err
	}()
	waitFor(t, "the owner's flight", func() bool { return tb.Len() == 1 })

	tb.Reset()
	if s := tb.Stats(0); s != (Stats{}) || tb.Len() != 0 {
		t.Fatalf("after Reset: %+v, Len %d", s, tb.Len())
	}
	// The emptied table starts a new flight for the same key.
	if v, err := tb.Do(0, 0, 1, func() (int, error) { return 2, nil }); err != nil || v != 2 {
		t.Fatalf("new flight: v=%d err=%v", v, err)
	}
	close(release)
	if err := <-ownerDone; err == nil {
		t.Fatal("the stale flight should fail")
	}
	v, err := tb.Do(0, 0, 1, func() (int, error) {
		t.Error("the stale flight's failure dropped the newer entry")
		return 3, nil
	})
	if err != nil || v != 2 {
		t.Errorf("after the stale flight: v=%d err=%v, want the newer entry's 2", v, err)
	}
	if s := tb.Stats(0); s.Hits != 1 || s.Misses != 1 {
		t.Errorf("counters = %+v, want 1 hit and 1 miss since Reset", s)
	}
}

// TestPrivateCopies: with a private func, every value the table hands
// out (the owner's and every hit) is a copy; values it never stored
// (a disabled table's) are returned as synthesized.
func TestPrivateCopies(t *testing.T) {
	var copies atomic.Int32
	tb := NewTable[int, *int](1, 1, func(p *int) *int {
		copies.Add(1)
		v := *p
		return &v
	})
	var made *int
	synth := func() (*int, error) { x := 1; made = &x; return made, nil }
	a, _ := tb.Do(0, 0, 1, synth)
	b, _ := tb.Do(0, 0, 1, synth)
	if a == made || b == made || a == b {
		t.Error("the stored value was handed out")
	}
	tb.SetEnabled(false)
	if c, _ := tb.Do(0, 0, 2, synth); c != made {
		t.Error("a bypassed synthesis was copied")
	}
	if n := copies.Load(); n != 2 {
		t.Errorf("copied %d times, want 2", n)
	}
}

func TestStatsDeltaAndHitRate(t *testing.T) {
	prev := Stats{Hits: 10, Misses: 5, Shared: 2, Bypassed: 1}
	now := Stats{Hits: 40, Misses: 15, Shared: 4, Bypassed: 1}
	if d := now.Delta(prev); d != (Stats{Hits: 30, Misses: 10, Shared: 2}) {
		t.Errorf("Delta = %+v", d)
	}
	if got := now.Delta(prev).HitRate(); got != 0.75 {
		t.Errorf("HitRate = %v, want 0.75", got)
	}
	// A Reset between the two reads drops every counter below prev's;
	// each delta is then the count since the reset, never a wrap.
	afterReset := Stats{Hits: 3, Misses: 2, Shared: 1}
	if d := afterReset.Delta(prev); d != afterReset {
		t.Errorf("Delta across a reset = %+v, want %+v", d, afterReset)
	}
	if got := (Stats{}).HitRate(); got != 0 {
		t.Errorf("empty HitRate = %v, want 0", got)
	}
}
