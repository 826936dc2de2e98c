package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"bftbcast"
	"bftbcast/internal/jobs"
)

// FuzzPartialBody holds POST /v1/jobs/{id}/partial to its contract on
// arbitrary bodies. Each input goes to a fresh manager with no executors
// of its own (so only the input can fold the range), holding one sharded
// job — the four points of gridDoc in a single lease range, leased on a
// stopped clock so the lease stays live — through the server's own mux,
// with no socket. The answer must be a 4xx that leaves the job as it was,
// or a 200 after which exactly one range folded: the job is done with
// every point, and the body's range and records pass the check every
// partial must (the partition range, hi−lo records, indices lo…hi−1, as
// jobs' checkRange has it), its records being the ones folded. The one
// other 200 is a worker's failure report (err set): the job fails and
// nothing folds. The seed corpus (testdata/fuzz/FuzzPartialBody) holds a
// valid partial, a record off its range, a short range, and an array
// nested 20 000 deep — twice what encoding/json accepts, well under the
// handler's 16 MB body cap; a failure report and a body that is not JSON
// are added here.
func FuzzPartialBody(f *testing.F) {
	spec, err := bftbcast.DecodeGridSpec([]byte(gridDoc))
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(`{"lo":0,"hi":4,"err":"boom"}`))
	f.Add([]byte(`not json`))

	stopped := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	f.Fuzz(func(t *testing.T, body []byte) {
		mgr, err := jobs.Open(jobs.Config{Dir: t.TempDir(), Workers: -1, Now: func() time.Time { return stopped }})
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := mgr.Close(ctx); err != nil {
				t.Error(err)
			}
		}()
		job, err := mgr.SubmitSharded(spec, jobs.ShardOptions{LeasePoints: 4})
		if err != nil {
			t.Fatal(err)
		}
		before := job.Status()
		if before.Total != 4 {
			t.Fatalf("the job has %d points, want one range of 4", before.Total)
		}
		if _, err := mgr.Lease(before.ID, "fuzz"); err != nil {
			t.Fatal(err)
		}

		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/jobs/"+before.ID+"/partial", bytes.NewReader(body))
		newHandler(mgr, 64, 30*time.Second).ServeHTTP(rec, req)
		after := job.Status()

		switch code := rec.Code; {
		case code >= 400 && code < 500:
			if after.State != before.State || after.Aggregate != before.Aggregate {
				t.Fatalf("status %d changed the job: %+v, was %+v", code, after, before)
			}
		case code == http.StatusOK:
			var p jobs.Partial
			if err := json.Unmarshal(body, &p); err != nil {
				t.Fatalf("200 for a body that does not decode: %v", err)
			}
			if p.Err != "" {
				if after.State != jobs.StateFailed || after.Aggregate != before.Aggregate {
					t.Fatalf("a failure report left the job %s with %d points folded", after.State, after.Aggregate.Done)
				}
				return
			}
			if err := partialRange(p, after.Total); err != nil {
				t.Fatalf("200 for a partial off its range: %v", err)
			}
			completed := 0
			for _, r := range p.Points {
				if r.Completed {
					completed++
				}
			}
			if after.State != jobs.StateDone || after.Aggregate.Done != int64(after.Total) || after.Aggregate.Completed != int64(completed) {
				t.Fatalf("200, but the job is %s with %d of %d points folded, %d completed (the partial has %d)",
					after.State, after.Aggregate.Done, after.Total, after.Aggregate.Completed, completed)
			}
		default:
			t.Fatalf("status %d: %s", code, rec.Body)
		}
	})
}

// partialRange is jobs' checkRange for the one range [0, total) of the
// fuzzed job.
func partialRange(p jobs.Partial, total int) error {
	if p.Lo != 0 || p.Hi != total {
		return fmt.Errorf("[%d,%d) is not the partition range [0,%d)", p.Lo, p.Hi, total)
	}
	if len(p.Points) != p.Hi-p.Lo {
		return fmt.Errorf("%d points for range [%d,%d)", len(p.Points), p.Lo, p.Hi)
	}
	for i, r := range p.Points {
		if r.Index != p.Lo+i {
			return fmt.Errorf("point %d carries index %d", p.Lo+i, r.Index)
		}
	}
	return nil
}
