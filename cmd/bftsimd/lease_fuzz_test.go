package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"bftbcast"
	"bftbcast/internal/jobs"
)

// FuzzLeaseBody holds POST /v1/jobs/{id}/lease to its contract on
// arbitrary bodies. Each input goes to a fresh manager with no executors
// of its own (so no range is leased before the input is), holding one
// sharded job — the four points of gridDoc in a single lease range, on a
// stopped clock so no lease expires — through the server's own mux, with
// no socket. The answer must be a 4xx that leaves the lease table empty (the
// manager then grants the range to the next caller), or a 200 whose grant
// is the range [0, 4) of that job with the job's spec, after which a
// second lease gets 204. The seed corpus (testdata/fuzz/FuzzLeaseBody)
// holds an empty body, a worker id that is not a string, a valid body
// with trailing bytes and a body over the handler's 64 KB cap; a plain
// worker id and a body that is not JSON are added here.
func FuzzLeaseBody(f *testing.F) {
	spec, err := bftbcast.DecodeGridSpec([]byte(gridDoc))
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(`{"worker":"w1"}`))
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
		id := job.ID()
		if total := job.Status().Total; total != 4 {
			t.Fatalf("the job has %d points, want one range of 4", total)
		}
		handler := newHandler(mgr, 64, 30*time.Second)
		lease := func(body []byte) *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs/"+id+"/lease", bytes.NewReader(body)))
			return rec
		}
		// The handler indents its JSON, the grant's spec included.
		var want bytes.Buffer
		if err := json.Compact(&want, job.Spec()); err != nil {
			t.Fatal(err)
		}
		wholeRange := func(g jobs.LeaseGrant) bool {
			var spec bytes.Buffer
			return g.JobID == id && g.Lo == 0 && g.Hi == 4 &&
				json.Compact(&spec, g.Spec) == nil && bytes.Equal(spec.Bytes(), want.Bytes())
		}

		switch rec := lease(body); {
		case rec.Code >= 400 && rec.Code < 500:
			g, err := mgr.Lease(id, "check")
			if err != nil || !wholeRange(g) {
				t.Fatalf("status %d left the lease table holding the range: the next lease got %+v, %v", rec.Code, g, err)
			}
		case rec.Code == http.StatusOK:
			var g jobs.LeaseGrant
			if err := json.Unmarshal(rec.Body.Bytes(), &g); err != nil {
				t.Fatalf("200 with a grant that does not decode: %v", err)
			}
			if !wholeRange(g) {
				t.Fatalf("200 granting %+v, want the range [0,4) of job %s with its spec", g, id)
			}
			if again := lease(nil); again.Code != http.StatusNoContent {
				t.Fatalf("a second lease got %d, want 204: %s", again.Code, again.Body)
			}
		default:
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	})
}
