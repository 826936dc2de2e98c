package jobs

import (
	"context"
	"encoding/json"
	"reflect"
	"slices"
	"testing"
)

// FuzzCheckpointJSON holds the checkpoint reader to its contract on
// arbitrary files: a document that decodes into a checkpoint is either
// refused by restoreJob, or restored to a job whose fold cursor sits on
// its range grid and whose every pending range passes checkRange, and
// whose record, marshalled as checkpointJob writes it, restores again to
// the same state, cursor and pending set. Nothing touches the disk. The
// seed corpus (testdata/fuzz/FuzzCheckpointJSON) holds the three
// legacy_*.json fixtures and two edits of the sharded one that used to
// be accepted: a pending range cut short, and a pending record off its
// index.
func FuzzCheckpointJSON(f *testing.F) {
	// Dir is never written: the fuzz body only calls restoreJob.
	m := &Manager{cfg: Config{Dir: "unused", Workers: 2}, baseCtx: context.Background()}
	if err := m.cfg.fill(); err != nil {
		f.Fatal(err)
	}
	restore := func(t *testing.T, doc []byte) *Job {
		var cp checkpoint
		if err := json.Unmarshal(doc, &cp); err != nil {
			return nil
		}
		job, err := m.restoreJob(&cp)
		if err != nil {
			return nil
		}
		if job.cancel != nil {
			t.Cleanup(job.cancel)
		}
		return job
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		job := restore(t, doc)
		if job == nil {
			return
		}
		if !job.state.Terminal() {
			c := job.cursor
			if c.Done < 0 || c.Done > c.Total || (c.Done%c.Size != 0 && c.Done != c.Total) {
				t.Fatalf("fold cursor %d off the grid of %d-point ranges over %d", c.Done, c.Size, c.Total)
			}
			if len(job.pending) != len(c.Pending) {
				t.Fatalf("%d pending ranges hold records, cursor lists %v", len(job.pending), c.Pending)
			}
			for _, lo := range c.Pending {
				hi, _ := c.Bounds(lo)
				if err := checkRange(&c, lo, hi, job.pending[lo]); err != nil || lo < c.Done {
					t.Fatalf("restored pending range [%d,%d) at cursor %d: %v", lo, hi, c.Done, err)
				}
			}
		}
		enc, err := json.Marshal(job.recordLocked())
		if err != nil {
			t.Fatal(err)
		}
		again := restore(t, enc)
		if again == nil {
			t.Fatalf("the restored job's own record is refused:\n%s", enc)
		}
		if again.state != job.state || again.cursor.Done != job.cursor.Done ||
			!slices.Equal(again.cursor.Pending, job.cursor.Pending) || !reflect.DeepEqual(again.pending, job.pending) {
			t.Fatalf("record moved on a second restore:\n%s", enc)
		}
	})
}
