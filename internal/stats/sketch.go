package stats

import (
	"encoding/json"
	"fmt"
	"math"
)

// Moments is a constant-size summary of a float64 stream: count, mean,
// second central moment, min and max. Add is Welford's online update.
// Feeding values in one fixed order is bit-deterministic, which is what
// the jobs layer's in-order aggregation relies on for byte-identical
// checkpoints across interrupted, uninterrupted and many-worker runs.
//
// The zero value is an empty summary ready for Add.
type Moments struct {
	N    int64   `json:"n"`
	Mean float64 `json:"mean"`
	// M2 is the sum of squared deviations from the mean (N * population
	// variance); it is the internal state behind Variance and is
	// exported only so checkpoints round-trip.
	M2  float64 `json:"m2"`
	Min float64 `json:"min"`
	Max float64 `json:"max"`
}

// Add folds one value into the summary.
func (m *Moments) Add(x float64) {
	m.N++
	if m.N == 1 {
		m.Mean, m.Min, m.Max = x, x, x
		m.M2 = 0
		return
	}
	d := x - m.Mean
	m.Mean += d / float64(m.N)
	m.M2 += d * (x - m.Mean)
	if x < m.Min {
		m.Min = x
	}
	if x > m.Max {
		m.Max = x
	}
}

// StdDev returns the sample standard deviation (n-1 denominator), 0 for
// fewer than two samples.
func (m Moments) StdDev() float64 {
	if m.N < 2 {
		return 0
	}
	return math.Sqrt(m.M2 / float64(m.N-1))
}

// The QSketch geometry: quantile estimates carry at most qsketchAlpha
// relative error, and the fixed bucket array covers values up to
// gamma^qsketchBuckets (≈ 2.9e10 at alpha 2.5%); larger values saturate
// into the last bucket. Slot counts — the sketch's one job here — sit
// many orders of magnitude below that.
const (
	qsketchAlpha   = 0.025
	qsketchBuckets = 512
)

// QSketch is a fixed-size quantile sketch over non-negative values in
// the DDSketch family: a value lands in the geometric bucket
// [gamma^i, gamma^(i+1)) with gamma = (1+alpha)/(1-alpha), so any
// quantile is answered from bucket counts with relative error at most
// alpha. The bucket array is fixed at construction — the sketch is
// constant-memory no matter how many values it absorbs.
//
// Construct with NewQSketch; the zero value is not ready for use.
type QSketch struct {
	gamma    float64
	logGamma float64
	count    int64
	zero     int64 // values in [0, 1)
	buckets  []int64
}

// NewQSketch returns an empty sketch with the package's fixed geometry
// (2.5% relative error, 512 buckets ≈ 4 KB).
func NewQSketch() *QSketch {
	gamma := (1 + qsketchAlpha) / (1 - qsketchAlpha)
	return &QSketch{
		gamma:    gamma,
		logGamma: math.Log(gamma),
		buckets:  make([]int64, qsketchBuckets),
	}
}

// Count returns the number of values absorbed.
func (s *QSketch) Count() int64 { return s.count }

// Add folds one value into the sketch. Negative values are clamped to
// the zero bucket (the sketch summarizes counts, which are never
// negative).
func (s *QSketch) Add(x float64) {
	s.count++
	if x < 1 {
		s.zero++
		return
	}
	i := int(math.Log(x) / s.logGamma)
	if i >= len(s.buckets) {
		i = len(s.buckets) - 1
	}
	s.buckets[i]++
}

// Quantile returns the estimated q-th quantile (q in [0, 1]) with
// relative error at most qsketchAlpha. It returns NaN for an empty
// sketch. Values from the zero bucket ([0,1)) are reported as 0.
func (s *QSketch) Quantile(q float64) float64 {
	if s.count == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q * float64(s.count-1)) // 0-based nearest rank
	if rank < s.zero {
		return 0
	}
	cum := s.zero
	for i, c := range s.buckets {
		cum += c
		if rank < cum {
			// The balanced estimate for [gamma^i, gamma^(i+1)): the
			// point whose worst-case relative error against both bucket
			// edges is exactly (gamma-1)/(gamma+1) = alpha.
			lo := math.Pow(s.gamma, float64(i))
			return lo * 2 * s.gamma / (1 + s.gamma)
		}
	}
	return math.Pow(s.gamma, float64(len(s.buckets))) // unreachable
}

// qsketchJSON is the sketch's checkpoint form: the non-empty buckets as
// ascending (index, count) pairs, so the document is deterministic and
// stays small however sparse the value range is.
type qsketchJSON struct {
	Alpha   float64    `json:"alpha"`
	Count   int64      `json:"count"`
	Zero    int64      `json:"zero"`
	Buckets [][2]int64 `json:"buckets"`
}

// MarshalJSON implements json.Marshaler with a deterministic sparse
// encoding (ascending bucket indices).
func (s *QSketch) MarshalJSON() ([]byte, error) {
	doc := qsketchJSON{Alpha: qsketchAlpha, Count: s.count, Zero: s.zero, Buckets: [][2]int64{}}
	for i, c := range s.buckets {
		if c != 0 {
			doc.Buckets = append(doc.Buckets, [2]int64{int64(i), c})
		}
	}
	return json.Marshal(doc)
}

// UnmarshalJSON implements json.Unmarshaler. The document's geometry
// must match the package's fixed alpha: a sketch checkpointed by a
// build with a different geometry cannot be resumed silently. The
// counts must be what MarshalJSON writes: non-negative, the buckets
// non-empty at strictly ascending indices, and count = zero + Σ buckets,
// so a decoded sketch answers every quantile from its buckets.
func (s *QSketch) UnmarshalJSON(data []byte) error {
	var doc qsketchJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		return err
	}
	if doc.Alpha != qsketchAlpha {
		return fmt.Errorf("stats: QSketch alpha %g does not match this build's %g", doc.Alpha, qsketchAlpha)
	}
	if doc.Count < 0 || doc.Zero < 0 || doc.Zero > doc.Count {
		return fmt.Errorf("stats: QSketch zero count %d not in [0, count %d]", doc.Zero, doc.Count)
	}
	fresh := NewQSketch()
	fresh.count, fresh.zero = doc.Count, doc.Zero
	sum, prev := doc.Zero, int64(-1)
	for _, b := range doc.Buckets {
		i, c := b[0], b[1]
		if i <= prev || i >= int64(len(fresh.buckets)) {
			return fmt.Errorf("stats: QSketch bucket index %d not ascending in [0, %d)", i, len(fresh.buckets))
		}
		// sum <= count holds here, so the comparison cannot overflow.
		if c <= 0 || c > doc.Count-sum {
			return fmt.Errorf("stats: QSketch bucket %d count %d is not positive or exceeds count %d", i, c, doc.Count)
		}
		fresh.buckets[i] = c
		sum += c
		prev = i
	}
	if sum != doc.Count {
		return fmt.Errorf("stats: QSketch count %d does not equal zero + buckets = %d", doc.Count, sum)
	}
	*s = *fresh
	return nil
}
