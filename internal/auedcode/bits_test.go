package auedcode

import (
	"math/rand"
	"testing"
	"testing/quick"

	"bftbcast/internal/stats"
)

func TestBitStringBasics(t *testing.T) {
	b := NewBitString(70) // spans two words
	if b.Len() != 70 || !b.IsZero() {
		t.Fatalf("fresh bitstring: len=%d zero=%v", b.Len(), b.IsZero())
	}
	b.Set(0, 1)
	b.Set(69, 1)
	b.Set(64, 1)
	if b.Get(0) != 1 || b.Get(69) != 1 || b.Get(64) != 1 || b.Get(1) != 0 {
		t.Fatal("Get/Set mismatch")
	}
	if b.PopCountRange(0, b.Len()) != 3 {
		t.Fatalf("PopCount = %d", b.PopCountRange(0, b.Len()))
	}
	b.Set(64, 0)
	if b.PopCountRange(0, b.Len()) != 2 {
		t.Fatalf("PopCount after clear = %d", b.PopCountRange(0, b.Len()))
	}
	if b.IsZero() {
		t.Fatal("non-zero string reported zero")
	}
}

func TestBitStringOutOfRangePanics(t *testing.T) {
	b := NewBitString(8)
	for _, f := range []func(){
		func() { b.Get(-1) },
		func() { b.Get(8) },
		func() { b.Set(8, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("out-of-range access did not panic")
				}
			}()
			f()
		}()
	}
}

func TestBitStringNegativeLength(t *testing.T) {
	b := NewBitString(-5)
	if b.Len() != 0 {
		t.Fatalf("len = %d", b.Len())
	}
}

func TestPopCountRange(t *testing.T) {
	b, err := ParseBits("11010011")
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct{ from, to, want int }{
		{0, 8, 5}, {0, 0, 0}, {0, 2, 2}, {2, 5, 1}, {5, 8, 2},
	}
	for _, tc := range tests {
		if got := b.PopCountRange(tc.from, tc.to); got != tc.want {
			t.Errorf("PopCountRange(%d,%d) = %d, want %d", tc.from, tc.to, got, tc.want)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	a, err := ParseBits("1010")
	if err != nil {
		t.Fatal(err)
	}
	c := a.Clone()
	c.Set(1, 1)
	if a.Get(1) != 0 {
		t.Fatal("clone mutated the original")
	}
	if !a.Equal(a.Clone()) {
		t.Fatal("clone not equal to original")
	}
}

func TestEqual(t *testing.T) {
	a, _ := ParseBits("1010")
	b, _ := ParseBits("1010")
	c, _ := ParseBits("1011")
	d, _ := ParseBits("10100")
	if !a.Equal(b) || a.Equal(c) || a.Equal(d) {
		t.Fatal("Equal misbehaves")
	}
}

func TestWriteReadUintRoundTrip(t *testing.T) {
	f := func(v uint16, at uint8) bool {
		b := NewBitString(40)
		pos := int(at) % 24
		b.WriteUint(uint(v), pos, 16)
		return b.ReadUint(pos, 16) == uint(v)
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteUintMSBFirst(t *testing.T) {
	b := NewBitString(4)
	b.WriteUint(0b1010, 0, 4)
	if b.String() != "1010" {
		t.Fatalf("WriteUint = %s", b)
	}
	if b.ReadUint(0, 4) != 10 {
		t.Fatalf("ReadUint = %d", b.ReadUint(0, 4))
	}
}

func TestParseBitsErrors(t *testing.T) {
	if _, err := ParseBits("10x1"); err == nil {
		t.Fatal("invalid character accepted")
	}
	b, err := ParseBits("")
	if err != nil || b.Len() != 0 {
		t.Fatalf("empty parse: %v len=%d", err, b.Len())
	}
}

func TestStringRoundTrip(t *testing.T) {
	rng := stats.NewRNG(31)
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(100) + 1
		b := NewBitString(n)
		for i := 0; i < n; i++ {
			if rng.Bool() {
				b.Set(i, 1)
			}
		}
		back, err := ParseBits(b.String())
		if err != nil {
			t.Fatal(err)
		}
		if !back.Equal(b) {
			t.Fatalf("string round trip failed for %s", b)
		}
	}
}
