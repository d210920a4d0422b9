package tensor

import (
	"math/rand"
	"testing"
)

// randomMatrix fills a rows x cols matrix with values in [-2, 2).
func randomMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.Float64()*4 - 2
	}
	return m
}

// TestMatMulMatchesMatVecRows pins the batched kernels against the
// serial per-row matvec they replace: every row of MatMulNT(dst, a, b)
// must be bit-identical to seeding dst's row and running b.MulVecAdd
// over a's row, because the deterministic-replay guarantee of the
// engine depends on batched and serial scoring producing the same
// bytes. Shapes are random and deliberately include ragged tails
// smaller than the kernel's block size and unroll width.
func TestMatMulMatchesMatVecRows(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		m := 1 + rng.Intn(70) // a rows: crosses the 4-row unroll tail
		n := 1 + rng.Intn(70) // b rows: crosses the 32-row block tail
		k := 1 + rng.Intn(90)
		a := randomMatrix(rng, m, k)
		b := randomMatrix(rng, n, k)
		bias := Vector(randomMatrix(rng, 1, n).Data)

		dst := GrowMatrix(nil, m, n)
		MatMulNT(dst, a, b)
		AddBiasRows(dst, bias)

		want := NewVector(n)
		for i := 0; i < m; i++ {
			copy(want, bias)
			b.MulVecAdd(want, a.Row(i))
			for j, w := range want {
				if got := dst.At(i, j); got != w {
					t.Fatalf("trial %d (m=%d n=%d k=%d): dst[%d][%d] = %v, serial matvec %v",
						trial, m, n, k, i, j, got, w)
				}
			}
		}
	}
}

func TestGrowMatrixReusesStorage(t *testing.T) {
	m := GrowMatrix(nil, 8, 8)
	if m.Rows != 8 || m.Cols != 8 || len(m.Data) != 64 {
		t.Fatalf("GrowMatrix(nil, 8, 8) = %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	data := &m.Data[0]
	shrunk := GrowMatrix(m, 4, 6)
	if shrunk != m || &shrunk.Data[0] != data {
		t.Fatal("GrowMatrix reallocated despite sufficient capacity")
	}
	if shrunk.Rows != 4 || shrunk.Cols != 6 || len(shrunk.Data) != 24 {
		t.Fatalf("shrunk shape %dx%d len %d", shrunk.Rows, shrunk.Cols, len(shrunk.Data))
	}
	grown := GrowMatrix(m, 16, 16)
	if grown.Rows != 16 || grown.Cols != 16 || len(grown.Data) != 256 {
		t.Fatalf("grown shape %dx%d len %d", grown.Rows, grown.Cols, len(grown.Data))
	}
}

func TestMatMulNTZeroAllocSteadyState(t *testing.T) {
	a := randomMatrix(rand.New(rand.NewSource(1)), 16, 24)
	b := randomMatrix(rand.New(rand.NewSource(2)), 48, 24)
	dst := GrowMatrix(nil, 16, 48)
	allocs := testing.AllocsPerRun(50, func() {
		dst = GrowMatrix(dst, 16, 48)
		MatMulNT(dst, a, b)
		AddBiasRows(dst, Vector(b.Data[:48]))
	})
	if allocs != 0 {
		t.Fatalf("MatMulNT steady state allocated %.1f times per run, want 0", allocs)
	}
}
