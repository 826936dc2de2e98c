// Package tiny is the mutation runner's own test subject.
package tiny

// Add returns a plus b.
func Add(a, b int) int { return a + b }

// Twice returns a doubled.
func Twice(a int) int { return a + a }

// Sum returns the sum of xs, by Add.
func Sum(xs ...int) int {
	s := 0
	for _, x := range xs {
		s = Add(s, x)
	}
	return s
}
