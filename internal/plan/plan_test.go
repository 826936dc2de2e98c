package plan

import (
	"errors"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"bftbcast/internal/grid"
	"bftbcast/internal/topo"
	"bftbcast/internal/topo/topotest"
)

// topologies returns one instance of every topology kind the engines
// run on.
func topologies(t *testing.T) map[string]topo.Topology {
	t.Helper()
	rgg, err := topo.NewConnectedRGG(200, 9)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]topo.Topology{
		"torus":   grid.MustNew(15, 15, 2),
		"bounded": topo.MustNewBounded(17, 13, 2),
		"rgg":     rgg,
	}
}

// TestPlanConformance is the differential suite of the compiled plan:
// every artifact must equal the naive per-call computation the engines
// used before plans existed.
func TestPlanConformance(t *testing.T) {
	for name, tp := range topologies(t) {
		t.Run(name, func(t *testing.T) {
			p := Compute(tp)
			n := tp.Size()
			if p.Size() != n {
				t.Fatalf("plan size %d, topology %d", p.Size(), n)
			}

			// CSR rows and ball sizes vs a fresh topology walk.
			for i := 0; i < n; i++ {
				id := grid.NodeID(i)
				want := tp.AppendNeighbors(nil, id)
				if got := p.Adjacency().Neighbors(id); !slices.Equal(got, want) {
					t.Fatalf("node %d: CSR row %v, walk %v", i, got, want)
				}
				if got := p.Adjacency().Degree(id); got != len(want) {
					t.Fatalf("node %d: plan degree %d, topology %d", i, got, len(want))
				}
				sorted := slices.Clone(want)
				slices.Sort(sorted)
				if got := p.Adjacency().SortedNeighbors(id); !slices.Equal(got, sorted) {
					t.Fatalf("node %d: sorted CSR row %v, want %v", i, got, sorted)
				}
			}
			if got, want := p.DiameterHint(), tp.DiameterHint(); got != want {
				t.Fatalf("diameter hint %d, want %d", got, want)
			}

			// Coloring and schedule vs the per-run derivations.
			wantColors, wantPeriod, err := tp.Coloring()
			if err != nil {
				t.Fatal(err)
			}
			if got := p.Colors(); !slices.Equal(got, wantColors) {
				t.Fatalf("plan colors differ from Coloring()")
			}
			if got := p.Period(); got != wantPeriod {
				t.Fatalf("plan period %d, want %d", got, wantPeriod)
			}
			if err := p.ColoringErr(); err != nil {
				t.Fatal(err)
			}
			for s := 0; s < 3*wantPeriod; s++ {
				if got := p.SlotColor(s); got != s%wantPeriod {
					t.Fatalf("slot %d: slot color %d, want %d", s, got, s%wantPeriod)
				}
			}

			// Color classes: ascending ids, exactly the nodes of each
			// color.
			classes := p.ColorClasses()
			if len(classes) != wantPeriod {
				t.Fatalf("%d color classes, want %d", len(classes), wantPeriod)
			}
			total := 0
			for c, class := range classes {
				if !slices.IsSorted(class) {
					t.Fatalf("color %d: class not ascending", c)
				}
				for _, id := range class {
					if int(wantColors[id]) != c {
						t.Fatalf("node %d in class %d but colored %d", id, c, wantColors[id])
					}
				}
				total += len(class)
			}
			if total != n {
				t.Fatalf("classes cover %d nodes, want %d", total, n)
			}

			// Every shipped topology's coloring is distance-2, and the
			// plan has checked it.
			if !p.DisjointClasses() {
				t.Fatalf("coloring of %v not verified distance-2", tp)
			}
		})
	}
}

// TestPlanMiscolored feeds Compute colorings that are not distance-2 —
// two same-colored nodes sharing a receiver, and two same-colored
// neighbors — and requires the verified bit to stay off: engines drop
// collision bookkeeping on the strength of it.
func TestPlanMiscolored(t *testing.T) {
	b := topo.MustNewBounded(12, 12, 1)
	for name, pair := range map[string][2]topo.NodeID{
		"common receiver": {b.ID(4, 4), b.ID(6, 4)},
		"neighbors":       {b.ID(4, 4), b.ID(5, 4)},
	} {
		p := Compute(topotest.Miscolored(b, pair[0], pair[1]))
		if err := p.ColoringErr(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.DisjointClasses() {
			t.Errorf("%s: miscolored plan reports a verified coloring", name)
		}
	}
}

// BenchmarkDisjointCheckRGG100k prices the verification pass on the
// benchmark's 100k-node RGG: one walk over the CSR, paid once per
// topology inside Compute (set-up time, never a run's).
func BenchmarkDisjointCheckRGG100k(b *testing.B) {
	g, err := topo.NewConnectedRGG(100_000, 7)
	if err != nil {
		b.Fatal(err)
	}
	p := Compute(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !classesDisjoint(p.adj, p.Colors(), p.classes) {
			b.Fatal("RGG coloring not distance-2")
		}
	}
}

// TestPlanCacheIdentity checks the cache contract: same topology, same
// plan pointer, from any goroutine; distinct topologies, distinct plans;
// Purge detaches the cache.
func TestPlanCacheIdentity(t *testing.T) {
	a := grid.MustNew(10, 10, 2)
	b := grid.MustNew(10, 10, 2) // equal dimensions, distinct identity

	var wg sync.WaitGroup
	plans := make([]*Plan, 8)
	for i := range plans {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			plans[i] = For(a)
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(plans); i++ {
		if plans[i] != plans[0] {
			t.Fatal("concurrent For calls returned distinct plans for one topology")
		}
	}
	if For(b) == For(a) {
		t.Fatal("distinct topologies share a plan")
	}
	old := For(a)
	Purge()
	if For(a) == old {
		t.Fatal("Purge did not drop the cached plan")
	}
}

// TestPlanCacheEviction floods the cache past its cap and checks the
// oldest entry was evicted (recomputed on next For) while recent ones
// are still served by identity — the bound that keeps topology-churning
// hosts from growing without limit.
func TestPlanCacheEviction(t *testing.T) {
	Purge()
	first := grid.MustNew(5, 5, 2)
	firstPlan := For(first)
	extras := make([]topo.Topology, maxCached)
	for i := range extras {
		extras[i] = grid.MustNew(5, 5, 2)
		For(extras[i])
	}
	if For(first) == firstPlan {
		t.Fatal("oldest entry survived a full cache turnover")
	}
	last := extras[len(extras)-1]
	if For(last) != For(last) {
		t.Fatal("recent entry not served by identity")
	}
	Purge()
}

// TestPlanCacheEvictionReleases regresses the eviction leak: advancing
// the order slice without clearing the evicted slot kept the oldest
// topology reachable through the slice's backing array until a realloc,
// pinning exactly the memory the maxCached cap exists to release. The
// evicted topology must become collectable immediately, and after heavy
// churn the cache map and order slice must agree on length and contents.
func TestPlanCacheEvictionReleases(t *testing.T) {
	Purge()
	defer Purge()

	freed := make(chan struct{})
	func() {
		first := grid.MustNew(5, 5, 2)
		runtime.SetFinalizer(first, func(*grid.Torus) { close(freed) })
		For(first)
	}()
	// maxCached further inserts push the first topology out. No more
	// appends after this point: the finalizer check must observe the
	// cleared slot itself, not a later backing-array reallocation.
	for i := 0; i < maxCached; i++ {
		For(grid.MustNew(5, 5, 2))
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-freed:
		case <-time.After(10 * time.Millisecond):
			if time.Now().Before(deadline) {
				continue
			}
			t.Fatal("evicted topology still reachable after GC: the order backing array pins it")
		}
		break
	}

	// Keep churning past another full turnover, then check map/order
	// agreement under the lock.
	for i := 0; i < maxCached/2; i++ {
		For(grid.MustNew(5, 5, 2))
	}
	cache.RLock()
	defer cache.RUnlock()
	if len(cache.m) != maxCached || len(cache.order) != maxCached {
		t.Fatalf("cache holds %d map entries and %d order entries, want %d of each",
			len(cache.m), len(cache.order), maxCached)
	}
	for i, tp := range cache.order {
		if tp == nil || cache.m[tp] == nil {
			t.Fatalf("order[%d] = %v not backed by a map entry", i, tp)
		}
	}
}

// TestPlanColoringError checks that a topology without a valid coloring
// compiles into a plan whose adjacency works and whose coloring error
// wraps the one Coloring() reports.
func TestPlanColoringError(t *testing.T) {
	tor := grid.MustNew(16, 15, 2) // 16 not divisible by 2r+1=5
	p := Compute(tor)
	if p.Adjacency().Neighbors(0) == nil {
		t.Fatal("adjacency missing on coloring failure")
	}
	gotErr := p.ColoringErr()
	_, _, wantErr := tor.Coloring()
	if gotErr == nil || wantErr == nil || !errors.Is(gotErr, grid.ErrNotDivisible) || !strings.Contains(gotErr.Error(), wantErr.Error()) {
		t.Fatalf("coloring error %v, Coloring() error %v", gotErr, wantErr)
	}
	if p.Colors() != nil || p.Period() != 0 || p.ColorClasses() != nil || p.DisjointClasses() {
		t.Fatal("coloring artifacts must be absent when the coloring fails")
	}
}
