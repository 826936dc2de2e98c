// Package tiny is the mutation runner's own test subject.
package tiny

// Add returns a plus b.
func Add(a, b int) int { return a + b }

// Twice returns a doubled.
func Twice(a int) int { return a + a }
