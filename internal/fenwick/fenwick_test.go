package fenwick_test

import (
	"math/rand"
	"testing"

	"asrs/internal/fenwick"
)

// TestTree1DRangeAddPointQuery validates the range-add/point-query tree
// against a brute-force array, including clamped and empty ranges.
func TestTree1DRangeAddPointQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(60)
		chans := 1 + rng.Intn(4)
		tree := fenwick.New1D[float64](n, chans)
		ref := make([]float64, n*chans)
		for op := 0; op < 200; op++ {
			l := rng.Intn(n+4) - 2
			r := rng.Intn(n+4) - 2
			ch := rng.Intn(chans)
			delta := float64(rng.Intn(21) - 10)
			tree.RangeAdd(l, r, ch, delta)
			lo, hi := l, r
			if lo < 0 {
				lo = 0
			}
			if hi >= n {
				hi = n - 1
			}
			for i := lo; i <= hi; i++ {
				ref[i*chans+ch] += delta
			}
		}
		out := make([]float64, chans)
		for i := 0; i < n; i++ {
			tree.PointInto(i, out)
			for c := 0; c < chans; c++ {
				if out[c] != ref[i*chans+c] {
					t.Fatalf("trial %d pos %d ch %d: got %v want %v", trial, i, c, out[c], ref[i*chans+c])
				}
			}
		}
		// Reset reuses storage and zeroes.
		tree.Reset(n, chans)
		tree.PointInto(0, out)
		for c := range out {
			if out[c] != 0 {
				t.Fatal("Reset did not zero the tree")
			}
		}
	}
}

// TestInt64Tree1D validates the fixed-point (int64) instantiation: the
// sums carried for quantized channels must match an exact integer
// reference, with the same clamping semantics as the float tree.
func TestInt64Tree1D(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(40)
		chans := 1 + rng.Intn(3)
		tree := fenwick.New1D[int64](n, chans)
		ref := make([]int64, n*chans)
		for op := 0; op < 150; op++ {
			l := rng.Intn(n+4) - 2
			r := rng.Intn(n+4) - 2
			ch := rng.Intn(chans)
			delta := int64(rng.Intn(1<<20) - 1<<19)
			tree.RangeAdd(l, r, ch, delta)
			lo, hi := l, r
			if lo < 0 {
				lo = 0
			}
			if hi >= n {
				hi = n - 1
			}
			for i := lo; i <= hi; i++ {
				ref[i*chans+ch] += delta
			}
		}
		out := make([]int64, chans)
		for i := 0; i < n; i++ {
			tree.PointInto(i, out)
			for c := 0; c < chans; c++ {
				if out[c] != ref[i*chans+c] {
					t.Fatalf("trial %d pos %d ch %d: got %v want %v", trial, i, c, out[c], ref[i*chans+c])
				}
			}
		}
	}
}
