package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMatrixMulVec(t *testing.T) {
	m := NewMatrix(2, 3)
	copy(m.Data, []float64{1, 2, 3, 4, 5, 6})
	y := make([]float64, 2)
	m.MulVec([]float64{1, 1, 1}, y)
	if y[0] != 6 || y[1] != 15 {
		t.Fatalf("MulVec = %v, want [6 15]", y)
	}
	x := make([]float64, 3)
	m.MulVecT([]float64{1, 1}, x)
	if x[0] != 5 || x[1] != 7 || x[2] != 9 {
		t.Fatalf("MulVecT = %v, want [5 7 9]", x)
	}
}

// TestMulVecMatchesNaive checks the four-row kernel bit for bit against a
// plain one-row-at-a-time dot product, across row counts that exercise the
// blocked rows, the remainder rows and both together.
func TestMulVecMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, rows := range []int{1, 3, 4, 5, 8, 63, 64, 65} {
		for _, cols := range []int{1, 7, 16, 64} {
			m := NewMatrix(rows, cols)
			for i := range m.Data {
				m.Data[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
			}
			x := make([]float64, cols)
			for j := range x {
				x[j] = rng.NormFloat64()
			}
			y := make([]float64, rows)
			m.MulVec(x, y)
			for i := 0; i < rows; i++ {
				want := 0.0
				for j := 0; j < cols; j++ {
					want += m.At(i, j) * x[j]
				}
				if math.Float64bits(y[i]) != math.Float64bits(want) {
					t.Fatalf("%dx%d row %d: MulVec %v, naive %v", rows, cols, i, y[i], want)
				}
			}
		}
	}
}

// TestForwardAllocationFree pins the inference path at zero allocations per
// call, with and without the skip inputs of the §6.2 modified structure.
func TestForwardAllocationFree(t *testing.T) {
	for _, skip := range [][]int{nil, {0, 3}} {
		net := NewNetwork(Config{Sizes: []int{6, 64, 64, 4}, Hidden: ReLU, Output: SoftmaxAct, SkipInputs: skip, Seed: 9})
		x := []float64{0.1, -0.4, 0.7, 0.2, 0.9, -0.3}
		if allocs := testing.AllocsPerRun(100, func() { net.Forward(x) }); allocs != 0 {
			t.Errorf("skip inputs %v: Forward allocates %.0f times per call, want 0", skip, allocs)
		}
		// A clone and a decoded copy get their own scratch and stay at zero.
		data, err := net.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var back Network
		if err := back.UnmarshalBinary(data); err != nil {
			t.Fatal(err)
		}
		for name, n := range map[string]*Network{"clone": net.Clone(), "decoded": &back} {
			n.Forward(x)
			if allocs := testing.AllocsPerRun(100, func() { n.Forward(x) }); allocs != 0 {
				t.Errorf("skip inputs %v, %s: Forward allocates %.0f times per call, want 0", skip, name, allocs)
			}
		}
	}
}

func TestMatrixAddOuter(t *testing.T) {
	m := NewMatrix(2, 2)
	m.AddOuter([]float64{1, 2}, []float64{3, 4}, 1)
	want := []float64{3, 4, 6, 8}
	for i, v := range want {
		if m.Data[i] != v {
			t.Fatalf("AddOuter data = %v, want %v", m.Data, want)
		}
	}
}

func TestSoftmaxProperties(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		x := make([]float64, len(raw))
		for i, v := range raw {
			// Clamp into a numerically sane range.
			x[i] = math.Mod(v, 50)
			if math.IsNaN(x[i]) || math.IsInf(x[i], 0) {
				x[i] = 0
			}
		}
		p := Softmax(x, nil)
		sum := 0.0
		for _, v := range p {
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxOrderPreserving(t *testing.T) {
	x := []float64{1, 3, 2}
	p := Softmax(x, nil)
	if !(p[1] > p[2] && p[2] > p[0]) {
		t.Fatalf("softmax not order preserving: %v", p)
	}
	if Argmax(p) != 1 {
		t.Fatalf("Argmax = %d, want 1", Argmax(p))
	}
}

func TestSampleDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := []float64{0.1, 0.7, 0.2}
	counts := make([]int, 3)
	const n = 20000
	for i := 0; i < n; i++ {
		counts[Sample(rng, p)]++
	}
	for i, want := range p {
		got := float64(counts[i]) / n
		if math.Abs(got-want) > 0.02 {
			t.Fatalf("action %d frequency %.3f, want ≈%.3f", i, got, want)
		}
	}
}

// numericalGrad estimates dL/dw by central differences.
func numericalGrad(net *Network, x []float64, target int, w *float64) float64 {
	const h = 1e-6
	loss := func() float64 {
		out := net.Forward(x)
		p := make([]float64, len(out))
		copy(p, out)
		return -math.Log(p[target] + 1e-12)
	}
	orig := *w
	*w = orig + h
	lp := loss()
	*w = orig - h
	lm := loss()
	*w = orig
	return (lp - lm) / (2 * h)
}

func TestGradientCheck(t *testing.T) {
	net := NewNetwork(Config{Sizes: []int{4, 8, 3}, Hidden: ReLU, Output: SoftmaxAct, Seed: 7})
	rng := rand.New(rand.NewSource(2))
	x := make([]float64, 4)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	target := 1
	out := net.Forward(x)
	net.ZeroGrad()
	net.Backward(CrossEntropyGrad(out, target, 1))

	// Spot check a handful of weights in each layer.
	for li, l := range net.Layers {
		for _, idx := range []int{0, len(l.W.Data) / 2, len(l.W.Data) - 1} {
			got := l.GW.Data[idx]
			want := numericalGrad(net, x, target, &l.W.Data[idx])
			if math.Abs(got-want) > 1e-4*(1+math.Abs(want)) {
				t.Fatalf("layer %d weight %d: analytic %g numeric %g", li, idx, got, want)
			}
		}
		got := l.GB[0]
		want := numericalGrad(net, x, target, &l.B[0])
		if math.Abs(got-want) > 1e-4*(1+math.Abs(want)) {
			t.Fatalf("layer %d bias: analytic %g numeric %g", li, got, want)
		}
	}
}

func TestGradientCheckSkip(t *testing.T) {
	net := NewNetwork(Config{Sizes: []int{4, 8, 3}, Hidden: Tanh, Output: SoftmaxAct, SkipInputs: []int{0, 2}, Seed: 7})
	x := []float64{0.3, -0.2, 0.8, 0.1}
	target := 2
	out := net.Forward(x)
	net.ZeroGrad()
	net.Backward(CrossEntropyGrad(out, target, 1))
	l := net.Layers[len(net.Layers)-1]
	if l.In != 8+2 {
		t.Fatalf("skip layer fan-in = %d, want 10", l.In)
	}
	for _, idx := range []int{0, len(l.W.Data) - 1} {
		got := l.GW.Data[idx]
		want := numericalGrad(net, x, target, &l.W.Data[idx])
		if math.Abs(got-want) > 1e-4*(1+math.Abs(want)) {
			t.Fatalf("skip output weight %d: analytic %g numeric %g", idx, got, want)
		}
	}
}

func TestXORLearning(t *testing.T) {
	net := NewNetwork(Config{Sizes: []int{2, 16, 2}, Hidden: Tanh, Output: SoftmaxAct, Seed: 3})
	opt := NewAdam(0.01)
	inputs := [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	targets := []int{0, 1, 1, 0}
	for epoch := 0; epoch < 800; epoch++ {
		net.ZeroGrad()
		for i, x := range inputs {
			out := net.Forward(x)
			net.Backward(CrossEntropyGrad(out, targets[i], 0.25))
		}
		opt.Step(net)
	}
	for i, x := range inputs {
		out := net.Forward(x)
		if Argmax(out) != targets[i] {
			t.Fatalf("XOR not learned: input %v → %v, want class %d", x, out, targets[i])
		}
	}
}

func TestSerializationRoundtrip(t *testing.T) {
	net := NewNetwork(Config{Sizes: []int{5, 7, 4}, Hidden: ReLU, Output: SoftmaxAct, SkipInputs: []int{1}, Seed: 11})
	x := []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	want := append([]float64(nil), net.Forward(x)...)

	data, err := net.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Network
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	got := back.Forward(x)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("roundtrip output %v, want %v", got, want)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	net := NewNetwork(Config{Sizes: []int{3, 4, 2}, Hidden: ReLU, Output: Identity, Seed: 5})
	c := net.Clone()
	x := []float64{1, 2, 3}
	a := append([]float64(nil), net.Forward(x)...)
	c.Layers[0].W.Data[0] += 100
	b := net.Forward(x)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("mutating clone changed original network")
		}
	}
}

func TestClipGrad(t *testing.T) {
	net := NewNetwork(Config{Sizes: []int{2, 2}, Hidden: Identity, Output: Identity, Seed: 1})
	net.ZeroGrad()
	for _, p := range net.Params() {
		for i := range p.G {
			p.G[i] = 10
		}
	}
	net.ClipGrad(1)
	sum := 0.0
	for _, p := range net.Params() {
		for _, g := range p.G {
			sum += g * g
		}
	}
	if math.Abs(math.Sqrt(sum)-1) > 1e-9 {
		t.Fatalf("clipped norm = %g, want 1", math.Sqrt(sum))
	}
}

func TestAdamReducesLoss(t *testing.T) {
	net := NewNetwork(Config{Sizes: []int{3, 8, 1}, Hidden: ReLU, Output: Identity, Seed: 9})
	rng := rand.New(rand.NewSource(4))
	// Fit y = x0 + 2*x1 - x2.
	loss := func() float64 {
		tot := 0.0
		for i := 0; i < 32; i++ {
			x := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
			y := x[0] + 2*x[1] - x[2]
			out := net.Forward(x)
			tot += (out[0] - y) * (out[0] - y)
		}
		return tot / 32
	}
	before := loss()
	opt := NewAdam(0.01)
	for epoch := 0; epoch < 500; epoch++ {
		net.ZeroGrad()
		for i := 0; i < 16; i++ {
			x := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
			y := x[0] + 2*x[1] - x[2]
			out := net.Forward(x)
			net.Backward([]float64{2 * (out[0] - y) / 16})
		}
		opt.Step(net)
	}
	after := loss()
	if after > before/10 {
		t.Fatalf("Adam did not reduce loss: before %g after %g", before, after)
	}
}

func TestEntropy(t *testing.T) {
	if h := Entropy([]float64{1, 0, 0}); h > 1e-9 {
		t.Fatalf("entropy of deterministic dist = %g, want 0", h)
	}
	u := Entropy([]float64{0.25, 0.25, 0.25, 0.25})
	if math.Abs(u-math.Log(4)) > 1e-9 {
		t.Fatalf("entropy of uniform = %g, want ln4", u)
	}
}
