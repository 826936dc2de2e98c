package tiny

import "testing"

func TestAdd(t *testing.T) {
	for _, c := range []struct{ a, b, want int }{{2, 3, 5}, {0, 0, 0}} {
		t.Run("", func(t *testing.T) {
			if got := Add(c.a, c.b); got != c.want {
				t.Fatalf("Add(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
			}
		})
	}
}

func TestTwice(t *testing.T) {
	if Twice(4) != 8 {
		t.Fatal("Twice(4) != 8")
	}
}

func TestSum(t *testing.T) {
	if Sum(1, 2, 3) != 6 {
		t.Fatal("Sum(1, 2, 3) != 6")
	}
}
