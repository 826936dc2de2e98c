package bftbcast

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

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
	var emitted []int
	orderedWorker(4, n, func(_, i int) {
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
	}, func(i int) {
		<-allDone
		if !finished[i].Load() {
			t.Errorf("emit(%d) before fn(%d) finished", i, i)
		}
		emitted = append(emitted, i)
	})
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
	var mu sync.Mutex
	owner := map[int]string{}
	var errs []error
	orderedWorker(workers, n, func(w, _ int) {
		id := goroutineID()
		mu.Lock()
		defer mu.Unlock()
		if w < 0 || w >= workers {
			errs = append(errs, fmt.Errorf("worker id %d outside [0, %d)", w, workers))
			return
		}
		if prev, ok := owner[w]; ok && prev != id {
			errs = append(errs, fmt.Errorf("worker %d ran on goroutines %s and %s", w, prev, id))
		}
		owner[w] = id
	}, func(int) {})
	if len(errs) > 0 {
		t.Fatal(errs[0])
	}
	seen := map[string]int{}
	for w, id := range owner {
		if other, dup := seen[id]; dup {
			t.Fatalf("workers %d and %d share goroutine %s", w, other, id)
		}
		seen[id] = w
	}
}
