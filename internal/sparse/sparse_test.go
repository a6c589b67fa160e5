package sparse

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/plasma-hpc/dsmcpic/internal/rng"
)

// laplace1D builds the N x N tridiagonal [-1, 2, -1] matrix (SPD).
func laplace1D(n int) *CSR {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.Add(i, i, 2)
		if i > 0 {
			b.Add(i, i-1, -1)
		}
		if i < n-1 {
			b.Add(i, i+1, -1)
		}
	}
	m, err := b.ToCSR()
	if err != nil {
		panic(err)
	}
	return m
}

// laplace2D builds the 5-point Laplacian on an n x n grid.
func laplace2D(n int) *CSR {
	id := func(i, j int) int { return j*n + i }
	b := NewBuilder(n * n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			v := id(i, j)
			b.Add(v, v, 4)
			if i > 0 {
				b.Add(v, id(i-1, j), -1)
			}
			if i < n-1 {
				b.Add(v, id(i+1, j), -1)
			}
			if j > 0 {
				b.Add(v, id(i, j-1), -1)
			}
			if j < n-1 {
				b.Add(v, id(i, j+1), -1)
			}
		}
	}
	m, err := b.ToCSR()
	if err != nil {
		panic(err)
	}
	return m
}

func TestBuilderDuplicatesSum(t *testing.T) {
	b := NewBuilder(2)
	b.Add(0, 0, 1)
	b.Add(0, 0, 2)
	b.Add(0, 1, -1)
	b.Add(1, 1, 5)
	m, err := b.ToCSR()
	if err != nil {
		t.Fatal(err)
	}
	if got := m.At(0, 0); got != 3 {
		t.Errorf("At(0,0) = %v, want 3", got)
	}
	if got := m.At(0, 1); got != -1 {
		t.Errorf("At(0,1) = %v", got)
	}
	if got := m.At(1, 0); got != 0 {
		t.Errorf("At(1,0) = %v, want 0 (missing)", got)
	}
	if m.NNZ() != 3 {
		t.Errorf("NNZ = %d", m.NNZ())
	}
}

func TestBuilderSetAndClearRow(t *testing.T) {
	b := NewBuilder(3)
	b.Add(0, 0, 1)
	b.Add(0, 1, 1)
	b.Set(0, 0, 7)
	m, _ := b.ToCSR()
	if m.At(0, 0) != 7 {
		t.Errorf("Set did not overwrite: %v", m.At(0, 0))
	}
	b.ClearRow(0)
	b.Set(0, 0, 1)
	m, _ = b.ToCSR()
	if m.At(0, 1) != 0 || m.At(0, 0) != 1 {
		t.Error("ClearRow left stale entries")
	}
}

func TestBuilderRejectsOutOfRange(t *testing.T) {
	b := NewBuilder(2)
	b.Add(0, 5, 1) // out of range caught at ToCSR
	if _, err := b.ToCSR(); err == nil {
		t.Error("out-of-range column accepted")
	}
}

func TestMulVec(t *testing.T) {
	m := laplace1D(4)
	x := []float64{1, 2, 3, 4}
	dst := make([]float64, 4)
	m.MulVec(dst, x)
	want := []float64{2*1 - 2, -1 + 4 - 3, -2 + 6 - 4, -3 + 8}
	for i := range want {
		if math.Abs(dst[i]-want[i]) > 1e-14 {
			t.Errorf("dst[%d] = %v, want %v", i, dst[i], want[i])
		}
	}
}

func TestMulVecRows(t *testing.T) {
	m := laplace2D(5)
	x := make([]float64, m.N)
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	full := make([]float64, m.N)
	m.MulVec(full, x)
	part := make([]float64, m.N)
	m.MulVecRows(part, x, 5, 15)
	for i := 5; i < 15; i++ {
		//commvet:ignore floatcompare MulVecRows performs the identical per-row dot product as MulVec, so equality is bitwise by construction
		if part[i] != full[i] {
			t.Errorf("row %d: %v != %v", i, part[i], full[i])
		}
	}
	for i := 0; i < 5; i++ {
		if part[i] != 0 {
			t.Errorf("row %d touched outside range", i)
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	m := laplace2D(4)
	tt := m.Transpose().Transpose()
	if tt.NNZ() != m.NNZ() {
		t.Fatalf("NNZ changed: %d -> %d", m.NNZ(), tt.NNZ())
	}
	for i := range m.Val {
		//commvet:ignore floatcompare transpose is a permutation copy — double transpose must reproduce the values bitwise
		if m.Val[i] != tt.Val[i] || m.ColIdx[i] != tt.ColIdx[i] {
			t.Fatal("transpose twice != identity")
		}
	}
}

func TestIsSymmetric(t *testing.T) {
	if !laplace2D(6).IsSymmetric(0) {
		t.Error("Laplacian not detected symmetric")
	}
	b := NewBuilder(2)
	b.Add(0, 1, 1)
	b.Add(1, 0, 2)
	b.Add(0, 0, 1)
	b.Add(1, 1, 1)
	m, _ := b.ToCSR()
	if m.IsSymmetric(1e-12) {
		t.Error("asymmetric matrix detected symmetric")
	}
}

// Property (quick): transpose preserves the quadratic form x^T A y = y^T A^T x.
func TestQuickTransposeAdjoint(t *testing.T) {
	m := laplace2D(5)
	mt := m.Transpose()
	f := func(seed uint64) bool {
		r := rng.New(seed, 0)
		x := make([]float64, m.N)
		y := make([]float64, m.N)
		for i := range x {
			x[i] = r.Float64() - 0.5
			y[i] = r.Float64() - 0.5
		}
		ax := make([]float64, m.N)
		aty := make([]float64, m.N)
		m.MulVec(ax, x)
		mt.MulVec(aty, y)
		return math.Abs(dot(y, ax)-dot(x, aty)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func residual(a *CSR, b, x []float64) float64 {
	r := make([]float64, a.N)
	a.MulVec(r, x)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	return norm2(r) / (norm2(b) + 1e-300)
}

func TestCGSolvesLaplace(t *testing.T) {
	for _, n := range []int{5, 20, 100} {
		a := laplace1D(n)
		b := make([]float64, n)
		for i := range b {
			b[i] = 1
		}
		x := make([]float64, n)
		res, err := CG(a, b, x, SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("n=%d: CG did not converge (res=%g)", n, res.Residual)
		}
		if r := residual(a, b, x); r > 1e-8 {
			t.Errorf("n=%d: residual %g", n, r)
		}
	}
}

func TestCGWithJacobi(t *testing.T) {
	a := laplace2D(20)
	b := make([]float64, a.N)
	r := rng.New(4, 0)
	for i := range b {
		b[i] = r.Float64() - 0.5
	}
	x := make([]float64, a.N)
	plain, err := CG(a, b, x, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	x2 := make([]float64, a.N)
	pre, err := CG(a, b, x2, SolveOptions{Precond: NewJacobi(a)})
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Converged || !pre.Converged {
		t.Fatal("CG failed to converge")
	}
	// Same solution either way.
	for i := range x {
		if math.Abs(x[i]-x2[i]) > 1e-6 {
			t.Fatalf("preconditioned solution differs at %d: %v vs %v", i, x[i], x2[i])
		}
	}
}

func TestCGZeroRHS(t *testing.T) {
	a := laplace1D(10)
	b := make([]float64, 10)
	x := make([]float64, 10)
	x[3] = 5 // nonzero initial guess
	res, err := CG(a, b, x, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("zero RHS did not converge")
	}
	for i, xi := range x {
		if xi != 0 {
			t.Errorf("x[%d] = %v, want 0", i, xi)
		}
	}
}

func TestCGDimensionMismatch(t *testing.T) {
	a := laplace1D(4)
	if _, err := CG(a, make([]float64, 3), make([]float64, 4), SolveOptions{}); err == nil {
		t.Error("dimension mismatch accepted")
	}
}

func TestCGNotSPD(t *testing.T) {
	// Negative definite matrix triggers the SPD breakdown guard.
	b := NewBuilder(2)
	b.Add(0, 0, -1)
	b.Add(1, 1, -1)
	a, _ := b.ToCSR()
	_, err := CG(a, []float64{1, 1}, make([]float64, 2), SolveOptions{})
	if err == nil {
		t.Error("CG on negative-definite matrix did not report breakdown")
	}
}

// Property: CG reaches the requested accuracy in the true residual
// |b - Ax| / |b| (recomputed from the returned x, not the recursively
// updated residual) on random right-hand sides of an SPD system.
func TestQuickCGTrueResidual(t *testing.T) {
	a := laplace2D(8)
	f := func(seed uint64) bool {
		r := rng.New(seed, 0)
		b := make([]float64, a.N)
		for i := range b {
			b[i] = r.Float64() - 0.5
		}
		x := make([]float64, a.N)
		res, err := CG(a, b, x, SolveOptions{Tol: 1e-12})
		if err != nil || !res.Converged {
			return false
		}
		return residual(a, b, x) <= 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestJacobiZeroDiagonal(t *testing.T) {
	b := NewBuilder(2)
	b.Add(0, 1, 1)
	b.Add(1, 0, 1)
	a, _ := b.ToCSR()
	p := NewJacobi(a)
	dst := make([]float64, 2)
	p.Apply(dst, []float64{3, 4})
	if dst[0] != 3 || dst[1] != 4 {
		t.Errorf("zero-diagonal fallback: %v", dst)
	}
}

func BenchmarkMulVec(b *testing.B) {
	a := laplace2D(100)
	x := make([]float64, a.N)
	dst := make([]float64, a.N)
	for i := range x {
		x[i] = float64(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.MulVec(dst, x)
	}
}

func BenchmarkCGLaplace2D(b *testing.B) {
	a := laplace2D(50)
	rhs := make([]float64, a.N)
	for i := range rhs {
		rhs[i] = 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := make([]float64, a.N)
		if _, err := CG(a, rhs, x, SolveOptions{Precond: NewJacobi(a)}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDefaultTolShared pins the one shared solver tolerance: DefaultTol is
// what every zero-Tol SolveOptions resolves to, here and in the distributed
// Poisson solver (pic.DistSolver), which calls the same WithDefaults.
func TestDefaultTolShared(t *testing.T) {
	if DefaultTol != 1e-10 {
		t.Fatalf("DefaultTol = %g, want 1e-10", DefaultTol)
	}
	o := SolveOptions{}.WithDefaults(50)
	if o.Tol != DefaultTol {
		t.Fatalf("zero Tol resolved to %g, want DefaultTol %g", o.Tol, DefaultTol)
	}
	if o.MaxIter != 500 {
		t.Fatalf("zero MaxIter resolved to %d, want 10*n = 500", o.MaxIter)
	}
	// An explicit tolerance is left alone.
	if o := (SolveOptions{Tol: 1e-6}).WithDefaults(50); o.Tol != 1e-6 {
		t.Fatalf("explicit Tol overridden to %g", o.Tol)
	}
}
