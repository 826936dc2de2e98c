package stats

import (
	"bytes"
	"encoding/json"
	"math"
	"sort"
	"testing"
)

// TestMomentsMatchesSummarize cross-checks the streaming summary against
// the batch summarize on a random sample.
func TestMomentsMatchesSummarize(t *testing.T) {
	rng := NewRNG(7)
	xs := make([]float64, 1000)
	var m Moments
	for i := range xs {
		xs[i] = rng.Float64()*500 + 1
		m.Add(xs[i])
	}
	want, err := summarize(xs)
	if err != nil {
		t.Fatal(err)
	}
	if int(m.N) != want.N || m.Min != want.Min || m.Max != want.Max {
		t.Fatalf("counts/extrema: got (%d, %g, %g), want (%d, %g, %g)",
			m.N, m.Min, m.Max, want.N, want.Min, want.Max)
	}
	if math.Abs(m.Mean-want.Mean) > 1e-9 {
		t.Fatalf("mean: got %g, want %g", m.Mean, want.Mean)
	}
	if math.Abs(m.StdDev()-want.StdDev) > 1e-9 {
		t.Fatalf("stddev: got %g, want %g", m.StdDev(), want.StdDev)
	}
}

// TestQSketchAccuracy checks the advertised relative-error bound against
// exact quantiles of a skewed sample.
func TestQSketchAccuracy(t *testing.T) {
	rng := NewRNG(3)
	s := NewQSketch()
	xs := make([]float64, 20000)
	for i := range xs {
		// Log-uniform over [1, ~20000]: exercises many buckets.
		xs[i] = math.Exp(rng.Float64() * 9.9)
		s.Add(xs[i])
	}
	sort.Float64s(xs)
	alpha := qsketchAlpha
	for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1} {
		exact := Percentile(xs, q)
		got := s.Quantile(q)
		if math.Abs(got-exact) > alpha*exact+1e-9 {
			t.Fatalf("q=%g: got %g, exact %g (allowed relative error %g)", q, got, exact, alpha)
		}
	}
	if s.Count() != int64(len(xs)) {
		t.Fatalf("count %d, want %d", s.Count(), len(xs))
	}
}

// TestQSketchZeroAndSaturation pins the edges: sub-1 values report as 0
// and out-of-range values saturate instead of growing the sketch.
func TestQSketchZeroAndSaturation(t *testing.T) {
	s := NewQSketch()
	for i := 0; i < 10; i++ {
		s.Add(0)
	}
	if got := s.Quantile(0.5); got != 0 {
		t.Fatalf("all-zero median = %g, want 0", got)
	}
	s.Add(1e300) // far beyond the bucket range
	if got := s.Quantile(1); math.IsInf(got, 0) || math.IsNaN(got) {
		t.Fatalf("saturated max = %g, want a finite estimate", got)
	}
	if s.Count() != 11 {
		t.Fatalf("count %d, want 11", s.Count())
	}
}

// TestQSketchJSONRoundTrip requires the checkpoint encoding be
// deterministic and lossless: marshal → unmarshal → marshal must be
// byte-identical, and a geometry mismatch must fail loudly.
func TestQSketchJSONRoundTrip(t *testing.T) {
	rng := NewRNG(9)
	s := NewQSketch()
	for i := 0; i < 3000; i++ {
		s.Add(float64(rng.Intn(4000)))
	}
	first, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	restored := NewQSketch()
	if err := json.Unmarshal(first, restored); err != nil {
		t.Fatal(err)
	}
	second, err := json.Marshal(restored)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("round trip not byte-identical:\n%s\nvs\n%s", first, second)
	}
	for _, q := range []float64{0, 0.5, 0.99} {
		if s.Quantile(q) != restored.Quantile(q) {
			t.Fatalf("q=%g differs after round trip", q)
		}
	}

	var bad QSketch
	if err := json.Unmarshal([]byte(`{"alpha":0.1,"count":0,"zero":0,"buckets":[]}`), &bad); err == nil {
		t.Fatal("alpha mismatch accepted")
	}
}

// TestQSketchEmpty pins NaN for the empty sketch.
func TestQSketchEmpty(t *testing.T) {
	if got := NewQSketch().Quantile(0.5); !math.IsNaN(got) {
		t.Fatalf("empty quantile = %g, want NaN", got)
	}
}

// TestQSketchUnmarshalRejects lists documents the checkpoint decoder
// must refuse. The first three used to decode: a count with no buckets
// behind it (Quantile then fell through its bucket loop), negative
// counts, and a duplicate bucket index that re-encoded as one bucket.
func TestQSketchUnmarshalRejects(t *testing.T) {
	for _, doc := range []string{
		`{"alpha":0.025,"count":5,"zero":0,"buckets":[]}`,
		`{"alpha":0.025,"count":-3,"zero":-1,"buckets":[[3,-2]]}`,
		`{"alpha":0.025,"count":2,"zero":0,"buckets":[[7,1],[7,1]]}`,
		`{"alpha":0.025,"count":2,"zero":0,"buckets":[[8,1],[7,1]]}`,
		`{"alpha":0.025,"count":1,"zero":0,"buckets":[[512,1]]}`,
		`{"alpha":0.025,"count":1,"zero":0,"buckets":[[-1,1]]}`,
		`{"alpha":0.025,"count":1,"zero":0,"buckets":[[3,0],[4,1]]}`,
		`{"alpha":0.025,"count":1,"zero":2,"buckets":[]}`,
		`{"alpha":0.025,"count":3,"zero":1,"buckets":[[4,1]]}`,
		`{"alpha":0.025,"count":9223372036854775807,"zero":1,"buckets":[[4,9223372036854775807]]}`,
	} {
		var s QSketch
		if err := json.Unmarshal([]byte(doc), &s); err == nil {
			t.Errorf("accepted %s", doc)
		}
	}
}

// FuzzQSketchJSON holds the sketch decoder, which reads every
// checkpoint's aggregate back, to its contract: an error, or a sketch
// whose MarshalJSON output decodes again to the same bytes and whose
// quantiles all come from a bucket. The seed corpus
// (testdata/fuzz/FuzzQSketchJSON) holds documents that used to be
// accepted and a sketch marshalled from a real aggregate.
func FuzzQSketchJSON(f *testing.F) {
	limit := math.Pow(NewQSketch().gamma, qsketchBuckets)
	f.Fuzz(func(t *testing.T, doc []byte) {
		var s QSketch
		if err := json.Unmarshal(doc, &s); err != nil {
			return
		}
		if s.Count() > 0 {
			if q := s.Quantile(1); !(q < limit) {
				t.Fatalf("Quantile(1) = %g, past the last bucket", q)
			}
		}
		enc, err := json.Marshal(&s)
		if err != nil {
			t.Fatal(err)
		}
		var back QSketch
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("re-decoding %s: %v", enc, err)
		}
		again, err := json.Marshal(&back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, again) {
			t.Fatalf("re-encoding moved:\n%s\n%s", enc, again)
		}
	})
}
