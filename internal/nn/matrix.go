// Package nn implements the minimal deep-learning substrate the Metis
// reproduction needs: dense feed-forward networks with ReLU/tanh/sigmoid/
// softmax activations, reverse-mode gradients, SGD and Adam optimizers, and
// gob serialization. It is written against the standard library only and is
// deterministic given a seeded rand.Source.
//
// The package deliberately supports exactly the model family used by the
// teacher systems in the paper (Pensieve, AuTO, RouteNet*): small multilayer
// perceptrons, optionally with a skip connection that re-injects selected raw
// inputs just before the output layer (used by the §6.2 "modified structure"
// experiment).
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Matrix is a dense row-major matrix of float64.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix allocates a zeroed Rows×Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("nn: invalid matrix dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set stores v at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero resets every element to zero.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// MulVec computes y = M·x for a vector x of length Cols.
//
// Four rows are summed at once, each into its own accumulator, so the four
// chains of dependent adds overlap instead of one row's latency bounding the
// loop. Every row is still summed in column order, so each y[i] is bit-for-bit
// the plain dot product of row i with x.
func (m *Matrix) MulVec(x, y []float64) {
	if len(x) != m.Cols || len(y) != m.Rows {
		panic(fmt.Sprintf("nn: MulVec shape mismatch: %dx%d by %d into %d", m.Rows, m.Cols, len(x), len(y)))
	}
	n := len(x)
	i := 0
	for ; i+4 <= len(y); i += 4 {
		r0 := m.Data[i*n:][:n]
		r1 := m.Data[(i+1)*n:][:n]
		r2 := m.Data[(i+2)*n:][:n]
		r3 := m.Data[(i+3)*n:][:n]
		var s0, s1, s2, s3 float64
		for j, xj := range x {
			s0 += r0[j] * xj
			s1 += r1[j] * xj
			s2 += r2[j] * xj
			s3 += r3[j] * xj
		}
		y[i], y[i+1], y[i+2], y[i+3] = s0, s1, s2, s3
	}
	for ; i < len(y); i++ {
		row := m.Data[i*n:][:n]
		s := 0.0
		for j, xj := range x {
			s += row[j] * xj
		}
		y[i] = s
	}
}

// MulVecT computes y = Mᵀ·x for a vector x of length Rows.
func (m *Matrix) MulVecT(x, y []float64) {
	if len(x) != m.Rows || len(y) != m.Cols {
		panic(fmt.Sprintf("nn: MulVecT shape mismatch: %dx%d by %d into %d", m.Rows, m.Cols, len(x), len(y)))
	}
	for j := range y {
		y[j] = 0
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		xi := x[i]
		if xi == 0 {
			continue
		}
		for j, w := range row {
			y[j] += w * xi
		}
	}
}

// AddOuter accumulates the outer product a·bᵀ scaled by s into the matrix.
func (m *Matrix) AddOuter(a, b []float64, s float64) {
	if len(a) != m.Rows || len(b) != m.Cols {
		panic("nn: AddOuter shape mismatch")
	}
	for i, ai := range a {
		if ai == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		f := ai * s
		for j, bj := range b {
			row[j] += f * bj
		}
	}
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("nn: Dot length mismatch")
	}
	s := 0.0
	for i, av := range a {
		s += av * b[i]
	}
	return s
}

// Axpy computes y += s·x in place.
func Axpy(s float64, x, y []float64) {
	if len(x) != len(y) {
		panic("nn: Axpy length mismatch")
	}
	for i, xv := range x {
		y[i] += s * xv
	}
}

// Scale multiplies every element of x by s in place.
func Scale(s float64, x []float64) {
	for i := range x {
		x[i] *= s
	}
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

// Argmax returns the index of the largest element of x (first on ties).
// It panics on an empty slice.
func Argmax(x []float64) int {
	if len(x) == 0 {
		panic("nn: Argmax of empty slice")
	}
	best := 0
	for i, v := range x {
		if v > x[best] {
			best = i
		}
	}
	return best
}

// Softmax writes the softmax of x into out (which may alias x) and returns out.
func Softmax(x, out []float64) []float64 {
	if out == nil {
		out = make([]float64, len(x))
	}
	if len(out) != len(x) {
		panic("nn: Softmax length mismatch")
	}
	max := x[0]
	for _, v := range x[1:] {
		if v > max {
			max = v
		}
	}
	sum := 0.0
	for i, v := range x {
		e := math.Exp(v - max)
		out[i] = e
		sum += e
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// Sample draws an index from the categorical distribution p using rng.
// p must sum to approximately 1.
func Sample(rng *rand.Rand, p []float64) int {
	u := rng.Float64()
	acc := 0.0
	for i, v := range p {
		acc += v
		if u < acc {
			return i
		}
	}
	return len(p) - 1
}

// Entropy returns the Shannon entropy (nats) of a categorical distribution.
func Entropy(p []float64) float64 {
	h := 0.0
	for _, v := range p {
		if v > 1e-12 {
			h -= v * math.Log(v)
		}
	}
	return h
}
