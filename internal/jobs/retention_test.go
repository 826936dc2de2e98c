package jobs

import (
	"context"
	"errors"
	"os"
	"testing"
	"time"
)

// finishedJob submits a one-point grid and waits it to done.
func finishedJob(t *testing.T, m *Manager, seed uint64) *Job {
	t.Helper()
	job, err := m.Submit(smallGrid(seed, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	return job
}

// TestRetentionSweep pins the terminal-checkpoint GC satellite: Retain
// keeps only the newest-finished N terminal jobs, RetainAge expires by
// finish time (surviving a restart via the checkpointed timestamp),
// and live jobs are never touched.
func TestRetentionSweep(t *testing.T) {
	clock := newFakeClock()
	dir := t.TempDir()
	eng := &gateEngine{tokens: make(chan struct{}, 8)}
	m, err := Open(Config{Dir: dir, Engine: eng, Now: clock.Now, Retain: 2, RetainAge: time.Hour})
	if err != nil {
		t.Fatal(err)
	}

	var done []*Job
	for i := 0; i < 4; i++ {
		eng.tokens <- struct{}{}
		done = append(done, finishedJob(t, m, uint64(100+i)))
		clock.Advance(time.Minute)
	}
	// A live (running) job must never be swept.
	live, err := m.Submit(smallGrid(200, 1))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "live job running", func() bool { return live.Status().State == StateRunning })

	m.sweepRetention()
	for i, job := range done {
		_, err := m.Get(job.ID())
		_, statErr := os.Stat(checkpointPath(dir, job.ID()))
		if i < 2 {
			if !errors.Is(err, ErrUnknownJob) || !os.IsNotExist(statErr) {
				t.Fatalf("old job %d survived the Retain=2 sweep (get=%v stat=%v)", i, err, statErr)
			}
		} else if err != nil || statErr != nil {
			t.Fatalf("retained job %d swept (get=%v stat=%v)", i, err, statErr)
		}
	}
	if _, err := m.Get(live.ID()); err != nil {
		t.Fatalf("live job swept: %v", err)
	}

	// Age out the rest: an hour later even the retained pair expires.
	clock.Advance(2 * time.Hour)
	m.sweepRetention()
	for i := 2; i < 4; i++ {
		if _, err := m.Get(done[i].ID()); !errors.Is(err, ErrUnknownJob) {
			t.Fatalf("job %d survived the age sweep: %v", i, err)
		}
	}
	if _, err := m.Get(live.ID()); err != nil {
		t.Fatalf("live job swept by age: %v", err)
	}
	eng.tokens <- struct{}{} // unblock the live job
	if err := live.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	mustClose(t, m)

	// The finish timestamp round-trips: a reopened manager ages the
	// restored terminal job without having seen it finish.
	clock.Advance(3 * time.Hour)
	m2, err := Open(Config{Dir: dir, Now: clock.Now, RetainAge: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, m2)
	if _, err := m2.Get(live.ID()); err != nil {
		t.Fatalf("restored job missing before sweep: %v", err)
	}
	m2.sweepRetention()
	if _, err := m2.Get(live.ID()); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("restored terminal job survived the age sweep: %v", err)
	}
}

// TestCheckpointIntervalCoalescing pins the fsync-amortization
// satellite: with the interval in force a fast job writes only its
// lifecycle checkpoints (submit, terminal), while a negative interval
// restores the pure count cadence — one write per completed range that
// is not the last, on top of those two.
func TestCheckpointIntervalCoalescing(t *testing.T) {
	clock := newFakeClock() // frozen: the interval never elapses
	run := func(interval time.Duration) int64 {
		// One executor and eight single-point ranges: completions arrive
		// in order, so the count below is exact.
		m, err := Open(Config{Dir: t.TempDir(), Workers: 1, CheckpointEvery: 1, CheckpointInterval: interval, Now: clock.Now})
		if err != nil {
			t.Fatal(err)
		}
		job, err := m.Submit(smallGrid(81, 8))
		if err != nil {
			mustClose(t, m)
			t.Fatal(err)
		}
		waitErr := job.Wait(context.Background())
		// Wait returns when the job turns terminal, which is before its
		// terminal checkpoint is written; Close joins the executor that
		// writes it, so the count below includes it.
		mustClose(t, m)
		if waitErr != nil {
			t.Fatal(waitErr)
		}
		return m.ckptWrites.Load()
	}
	if got := run(time.Hour); got != 2 {
		t.Fatalf("coalesced run wrote %d checkpoints, want 2 (submit, terminal)", got)
	}
	if got := run(-1); got != 2+7 {
		t.Fatalf("count-cadence run wrote %d checkpoints, want 9", got)
	}
}
