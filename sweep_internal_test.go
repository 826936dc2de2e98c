package bftbcast

import (
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
	orderedWorker(4, n, func(i int) {
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
