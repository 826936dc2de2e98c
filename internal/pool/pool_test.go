package pool

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestForEachLowestIndexErrorWins makes the higher failing index finish
// first (the lower one waits for it), so a pool that reported the first
// error to arrive would return the wrong one.
func TestForEachLowestIndexErrorWins(t *testing.T) {
	const n = 16
	errLow, errHigh := errors.New("index 3"), errors.New("index 11")
	for _, workers := range []int{1, 2, 4, n} {
		highDone := make(chan struct{})
		err := ForEach(workers, n, func(i int) error {
			switch i {
			case 3:
				if workers > 1 {
					<-highDone
				}
				return errLow
			case 11:
				close(highDone)
				return errHigh
			}
			return nil
		})
		if err != errLow {
			t.Fatalf("workers=%d: got %v, want the lowest failing index's error", workers, err)
		}
	}
}

// TestForEachAttemptsEveryIndex: a failure does not stop the pool, and
// every index runs exactly once.
func TestForEachAttemptsEveryIndex(t *testing.T) {
	const n = 100
	for _, workers := range []int{0, 1, 3, 8, 2 * n} {
		var hits [n]atomic.Int32
		err := ForEach(workers, n, func(i int) error {
			hits[i].Add(1)
			if i%7 == 0 {
				return fmt.Errorf("index %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "index 0" {
			t.Fatalf("workers=%d: got %v, want index 0's error", workers, err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}
	}
	if err := ForEach(4, 0, func(int) error { return errors.New("called") }); err != nil {
		t.Fatalf("n=0: got %v, want no call", err)
	}
}

// TestOrderedWorkerEmitsInOrder: index 0 finishes last and the consumer
// stalls on its first emission until every index has been computed — so
// completions arrive out of order and a pool whose workers waited for the
// consumer would deadlock — yet emit still sees 0, 1, ..., n-1, each
// after its own fn finished.
func TestOrderedWorkerEmitsInOrder(t *testing.T) {
	const n = 24
	var finished [n]atomic.Bool
	var computed atomic.Int32
	lastDone, allDone := make(chan struct{}), make(chan struct{})
	errMid := errors.New("index 5")
	var emitted []int
	err := OrderedWorker(4, n, func(_, i int) error {
		switch i {
		case 0:
			<-lastDone
		case n - 1:
			close(lastDone)
		}
		finished[i].Store(true)
		if computed.Add(1) == n {
			close(allDone)
		}
		if i == 5 {
			return errMid
		}
		return nil
	}, func(i int) {
		<-allDone
		if !finished[i].Load() {
			t.Errorf("emit(%d) before fn(%d) finished", i, i)
		}
		emitted = append(emitted, i)
	})
	if err != errMid {
		t.Fatalf("got %v, want index 5's error", err)
	}
	if len(emitted) != n {
		t.Fatalf("emitted %d of %d indices", len(emitted), n)
	}
	for i, got := range emitted {
		if got != i {
			t.Fatalf("emission %d was index %d", i, got)
		}
	}
}

// goroutineID reads the current goroutine's id off its stack header
// ("goroutine 42 [running]:").
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return string(bytes.Fields(buf)[1])
}

// TestWorkerIdentityStable: every call with the same w runs on one
// goroutine, w stays inside [0, workers), and distinct w's are distinct
// goroutines — what lets Sweep pin an engine per worker.
func TestWorkerIdentityStable(t *testing.T) {
	const n, workers = 200, 4
	run := map[string]func(fn func(w, i int) error) error{
		"ForEachWorker": func(fn func(w, i int) error) error { return ForEachWorker(workers, n, fn) },
		"OrderedWorker": func(fn func(w, i int) error) error { return OrderedWorker(workers, n, fn, func(int) {}) },
	}
	for name, do := range run {
		var mu sync.Mutex
		owner := map[int]string{}
		err := do(func(w, _ int) error {
			id := goroutineID()
			mu.Lock()
			defer mu.Unlock()
			if w < 0 || w >= workers {
				return fmt.Errorf("worker id %d outside [0, %d)", w, workers)
			}
			if prev, ok := owner[w]; ok && prev != id {
				return fmt.Errorf("worker %d ran on goroutines %s and %s", w, prev, id)
			}
			owner[w] = id
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		seen := map[string]int{}
		for w, id := range owner {
			if other, dup := seen[id]; dup {
				t.Fatalf("%s: workers %d and %d share goroutine %s", name, w, other, id)
			}
			seen[id] = w
		}
	}
}
