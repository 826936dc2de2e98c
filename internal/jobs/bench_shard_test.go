package jobs

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"bftbcast"
)

// benchGrid is the 64-point grid shared with BenchmarkJobThroughput,
// so the two benchmarks' numbers are directly comparable.
func benchGrid() *bftbcast.GridSpec {
	grid := smallGrid(9, 16)
	grid.T = []int{1, 2}
	grid.MF = []int{1, 2}
	return grid
}

// timeShardedGrid runs one whole sharded grid through a fresh manager
// with the given number of shard executors and returns the wall time.
func timeShardedGrid(b *testing.B, executors int) time.Duration {
	b.Helper()
	m, err := Open(Config{Dir: b.TempDir(), Workers: 1, MaxQueue: 64, ShardExecutors: executors})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		_ = m.Close(ctx)
	}()
	start := time.Now()
	job, err := m.SubmitSharded(benchGrid(), ShardOptions{LeasePoints: 4})
	if err != nil {
		b.Fatal(err)
	}
	if err := job.Wait(context.Background()); err != nil {
		b.Fatal(err)
	}
	return time.Since(start)
}

// BenchmarkShardedGridThroughput measures the sharded job served by
// in-process shard executors pulling 4-point leases of the 64-point
// grid. One assertion rides along on every run: four executors must
// beat one (skipped on GOMAXPROCS=1, where extra executors cannot
// help). The two counts are sampled in turn, five rounds over, and
// their fastest samples compared, so a noisy stretch of a loaded box
// lands on both at once.
func BenchmarkShardedGridThroughput(b *testing.B) {
	if runtime.GOMAXPROCS(0) > 1 {
		var one, four time.Duration
		for r := 0; r < 5; r++ {
			if d := timeShardedGrid(b, 1); r == 0 || d < one {
				one = d
			}
			if d := timeShardedGrid(b, 4); r == 0 || d < four {
				four = d
			}
		}
		if four >= one {
			b.Fatalf("sharding did not scale: executors=4 took %v, executors=1 took %v", four, one)
		}
	}

	grid := benchGrid()
	points := grid.NPoints()
	for _, executors := range []int{1, 4} {
		b.Run(fmt.Sprintf("executors=%d", executors), func(b *testing.B) {
			m, err := Open(Config{Dir: b.TempDir(), Workers: 1, MaxQueue: 1024, ShardExecutors: executors})
			if err != nil {
				b.Fatal(err)
			}
			defer func() {
				ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
				defer cancel()
				_ = m.Close(ctx)
			}()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				job, err := m.SubmitSharded(grid, ShardOptions{LeasePoints: 4})
				if err != nil {
					b.Fatal(err)
				}
				if err := job.Wait(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(points*b.N)/b.Elapsed().Seconds(), "points/s")
		})
	}
}
