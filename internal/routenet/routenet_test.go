package routenet

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/nn"
	"repro/internal/routing"
	"repro/internal/topo"
)

func TestPredictDelaysShape(t *testing.T) {
	g := topo.NSFNet(10)
	m := NewModel(1)
	demands := routing.RandomDemands(g, 8, 2, 8, 1)
	r := routing.ShortestPathRouting(g, demands)
	pred := m.PredictDelays(g, demands, r.Paths, nil)
	if len(pred) != 8 {
		t.Fatalf("predictions = %d", len(pred))
	}
	for _, p := range pred {
		if p <= 0 || math.IsNaN(p) {
			t.Fatalf("bad prediction %v", p)
		}
	}
}

func TestMaskChangesPrediction(t *testing.T) {
	g := topo.NSFNet(10)
	m := NewModel(2)
	demands := routing.RandomDemands(g, 5, 2, 8, 2)
	r := routing.ShortestPathRouting(g, demands)
	base := m.PredictDelays(g, demands, r.Paths, nil)
	mask := make([]float64, NumConnections(r.Paths))
	for i := range mask {
		mask[i] = 1
	}
	same := m.PredictDelays(g, demands, r.Paths, mask)
	for i := range base {
		if math.Abs(base[i]-same[i]) > 1e-9 {
			t.Fatalf("all-ones mask changed prediction: %v vs %v", base[i], same[i])
		}
	}
	for i := range mask {
		mask[i] = 0.1
	}
	masked := m.PredictDelays(g, demands, r.Paths, mask)
	diff := 0.0
	for i := range base {
		diff += math.Abs(base[i] - masked[i])
	}
	if diff == 0 {
		t.Fatal("strong mask had no effect on predictions")
	}
}

func TestConnectionOffsets(t *testing.T) {
	paths := []topo.Path{{1, 2}, {3}, {4, 5, 6}}
	off := ConnectionOffsets(paths)
	if off[0] != 0 || off[1] != 2 || off[2] != 3 {
		t.Fatalf("offsets = %v", off)
	}
	if NumConnections(paths) != 6 {
		t.Fatalf("NumConnections = %d", NumConnections(paths))
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	g := topo.NSFNet(10)
	m := NewModel(3)
	cfg := TrainConfig{Demands: 10, Samples: 3, Generations: 40, Seed: 7}
	before := m.Loss(g, cfg, 99)
	m.Train(g, cfg)
	after := m.Loss(g, cfg, 99)
	if after >= before {
		t.Fatalf("training did not reduce loss: before %.4f after %.4f", before, after)
	}
}

func TestOptimizerProducesValidRouting(t *testing.T) {
	g := topo.NSFNet(10)
	m := NewModel(4)
	demands := routing.RandomDemands(g, 6, 2, 8, 3)
	o := &Optimizer{Model: m, Graph: g}
	r := o.Route(demands)
	if len(r.Paths) != 6 {
		t.Fatalf("routed %d demands", len(r.Paths))
	}
	for i, p := range r.Paths {
		nodes := p.Nodes(g)
		if nodes[0] != demands[i].Src || nodes[len(nodes)-1] != demands[i].Dst {
			t.Fatalf("path %d endpoints wrong", i)
		}
	}
}

func TestChoiceDistributionValid(t *testing.T) {
	g := topo.NSFNet(10)
	m := NewModel(5)
	demands := routing.RandomDemands(g, 4, 2, 8, 4)
	o := &Optimizer{Model: m, Graph: g}
	r := o.Route(demands)
	mask := make([]float64, NumConnections(r.Paths))
	for i := range mask {
		mask[i] = 0.8
	}
	for i := range demands {
		dist := o.ChoiceDistribution(r, i, mask, 1)
		cands := g.CandidatePaths(demands[i].Src, demands[i].Dst, 1)
		if len(dist) != len(cands) {
			t.Fatalf("dist len %d, candidates %d", len(dist), len(cands))
		}
		sum := 0.0
		for _, p := range dist {
			if p < 0 {
				t.Fatalf("negative probability %v", p)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("distribution sums to %v", sum)
		}
	}
	// ChoiceDistribution must not corrupt the routing it inspects.
	for i, p := range r.Paths {
		if len(p) == 0 {
			t.Fatalf("path %d emptied by ChoiceDistribution", i)
		}
	}
}

// referencePredictDelays is the original allocation-heavy forward pass, kept
// verbatim as the bit-for-bit reference for PredictDelays.
func (m *Model) referencePredictDelays(g *topo.Graph, demands []routing.Demand, paths []topo.Path, mask []float64) []float64 {
	numLinks := len(g.Links)
	hL := make([][]float64, numLinks)
	for i, l := range g.Links {
		out := m.LinkInit.Forward([]float64{l.CapMbps / 100})
		hL[i] = append([]float64(nil), out...)
	}
	hP := make([][]float64, len(paths))
	for i := range paths {
		out := m.PathInit.Forward([]float64{demands[i].VolumeMbps / 10})
		hP[i] = append([]float64(nil), out...)
	}
	off := ConnectionOffsets(paths)
	weight := func(pathIdx, pos int) float64 {
		if mask == nil {
			return 1
		}
		return mask[off[pathIdx]+pos]
	}

	buf := make([]float64, 2*EmbedDim)
	for round := 0; round < Rounds; round++ {
		// Path update: sequentially absorb link states along the path.
		for pi, p := range paths {
			for pos, id := range p {
				copy(buf[:EmbedDim], hP[pi])
				copy(buf[EmbedDim:], hL[id])
				out := m.PathUpd.Forward(buf)
				w := weight(pi, pos)
				for k := range hP[pi] {
					hP[pi][k] = (1-w)*hP[pi][k] + w*out[k]
				}
			}
		}
		// Link aggregation: sum masked messages from covering paths.
		agg := make([][]float64, numLinks)
		for i := range agg {
			agg[i] = make([]float64, EmbedDim)
		}
		for pi, p := range paths {
			for pos, id := range p {
				copy(buf[:EmbedDim], hP[pi])
				copy(buf[EmbedDim:], hL[id])
				msg := m.Message.Forward(buf)
				w := weight(pi, pos)
				for k := range msg {
					agg[id][k] += w * msg[k]
				}
			}
		}
		// Link update.
		for i := range hL {
			copy(buf[:EmbedDim], hL[i])
			copy(buf[EmbedDim:], agg[i])
			out := m.LinkUpd.Forward(buf)
			copy(hL[i], out)
		}
	}
	delays := make([]float64, len(paths))
	for pi := range paths {
		raw := m.Readout.Forward(hP[pi])[0]
		// Softplus keeps predictions positive; scale to milliseconds.
		delays[pi] = 10 * math.Log1p(math.Exp(raw))
	}
	return delays
}

// referenceChoiceDistribution is the original ChoiceDistribution, on top of
// referencePredictDelays.
func (o *Optimizer) referenceChoiceDistribution(r *routing.Routing, i int, mask []float64, temperature float64) []float64 {
	if temperature <= 0 {
		temperature = 1
	}
	d := r.Demands[i]
	cands := o.Graph.CandidatePaths(d.Src, d.Dst, 1)
	off := ConnectionOffsets(r.Paths)
	chosenMask := map[int]float64{}
	if mask != nil {
		for pos, id := range r.Paths[i] {
			chosenMask[id] = mask[off[i]+pos]
		}
	}
	scores := make([]float64, len(cands))
	saved := r.Paths[i]
	for ci, cand := range cands {
		r.Paths[i] = cand
		var candMask []float64
		if mask != nil {
			candMask = make([]float64, NumConnections(r.Paths))
			noff := ConnectionOffsets(r.Paths)
			for pj, p := range r.Paths {
				for pos, id := range p {
					w := 1.0
					if pj == i {
						if mv, ok := chosenMask[id]; ok {
							w = mv
						}
					} else {
						w = mask[off[pj]+pos]
					}
					candMask[noff[pj]+pos] = w
				}
			}
		}
		pred := o.Model.referencePredictDelays(o.Graph, r.Demands, r.Paths, candMask)
		scores[ci] = -pred[i] / temperature
	}
	r.Paths[i] = saved
	return nn.Softmax(scores, nil)
}

// equivalenceGraphs are the topologies of the reference-equivalence cases:
// NSFNet at two capacities and a small ring with distinct link capacities,
// interleaved so one model's scratch is resized between passes.
func equivalenceGraphs() []*topo.Graph {
	ring := topo.New(5)
	for i := 0; i < 5; i++ {
		ring.AddBidirectional(i, (i+1)%5, float64(10+7*i))
	}
	return []*topo.Graph{topo.NSFNet(10), ring, topo.NSFNet(40)}
}

// equivalenceMasks returns the mask variants of one routing: nil, all ones,
// all zeros, an exact 0/1 mix and uniform random weights.
func equivalenceMasks(n int, rng *rand.Rand) map[string][]float64 {
	fill := func(f func(i int) float64) []float64 {
		m := make([]float64, n)
		for i := range m {
			m[i] = f(i)
		}
		return m
	}
	return map[string][]float64{
		"nil":     nil,
		"ones":    fill(func(int) float64 { return 1 }),
		"zeros":   fill(func(int) float64 { return 0 }),
		"binary":  fill(func(int) float64 { return float64(rng.Intn(2)) }),
		"uniform": fill(func(int) float64 { return rng.Float64() }),
	}
}

type equivalenceCase struct {
	name    string
	g       *topo.Graph
	demands []routing.Demand
	paths   []topo.Path
	mask    []float64
}

// equivalenceCases enumerates seeded (graph, demands, routing, mask) cases.
// One- and two-demand samples leave most links uncovered.
func equivalenceCases() []equivalenceCase {
	rng := rand.New(rand.NewSource(5))
	var cases []equivalenceCase
	for gi, g := range equivalenceGraphs() {
		for _, n := range []int{1, 2, 6, 10, 20} {
			if n > g.NumNodes*(g.NumNodes-1)/2 {
				n = g.NumNodes
			}
			for seed := int64(1); seed <= 2; seed++ {
				demands := routing.RandomDemands(g, n, 2, 12, seed*100+int64(n))
				routings := map[string][]topo.Path{
					"shortest": routing.ShortestPathRouting(g, demands).Paths,
					"random":   randomRouting(g, demands, seed).Paths,
				}
				for rname, paths := range routings {
					for mname, mask := range equivalenceMasks(NumConnections(paths), rng) {
						cases = append(cases, equivalenceCase{
							name: fmt.Sprintf("g%d/n%d/s%d/%s/%s", gi, n, seed, rname, mname),
							g:    g, demands: demands, paths: paths, mask: mask,
						})
					}
				}
			}
		}
	}
	sort.Slice(cases, func(i, j int) bool { return cases[i].name < cases[j].name })
	return cases
}

// equivalenceModels are untrained models of several seeds plus one with
// inflated weights, whose tanh layers run saturated.
func equivalenceModels() []*Model {
	big := NewModel(13)
	for _, p := range big.Params() {
		nn.Scale(4, p.W)
	}
	return []*Model{NewModel(1), NewModel(7), NewModel(41), big}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestPredictDelaysMatchesReference holds PredictDelays bit for bit to the
// original forward pass across models, topologies, demand sets, routings
// and masks.
func TestPredictDelaysMatchesReference(t *testing.T) {
	cases := equivalenceCases()
	checked := 0
	for mi, m := range equivalenceModels() {
		ref := m.Clone()
		for _, c := range cases {
			want := ref.referencePredictDelays(c.g, c.demands, c.paths, c.mask)
			got := m.PredictDelays(c.g, c.demands, c.paths, c.mask)
			if !sameBits(got, want) {
				t.Fatalf("model %d, %s: PredictDelays\n got %v\nwant %v", mi, c.name, got, want)
			}
			checked++
		}
	}
	if checked < 200 {
		t.Fatalf("only %d cases checked", checked)
	}
}

// TestChoiceDistributionMatchesReference holds ChoiceDistribution bit for
// bit to the original, for the first, a middle and the last demand of every
// case, and checks the routing is left as it was.
func TestChoiceDistributionMatchesReference(t *testing.T) {
	cases := equivalenceCases()
	models := equivalenceModels()
	checked := 0
	for mi, m := range []*Model{models[0], models[len(models)-1]} {
		for _, c := range cases {
			o := &Optimizer{Model: m, Graph: c.g}
			ref := &Optimizer{Model: m.Clone(), Graph: c.g}
			r := &routing.Routing{Demands: c.demands, Paths: append([]topo.Path(nil), c.paths...)}
			n := len(c.demands)
			for _, i := range slices.Compact([]int{0, n / 2, n - 1}) {
				want := ref.referenceChoiceDistribution(r, i, c.mask, 0.5)
				got := o.ChoiceDistribution(r, i, c.mask, 0.5)
				if !sameBits(got, want) {
					t.Fatalf("model %d, %s, demand %d: ChoiceDistribution\n got %v\nwant %v", mi, c.name, i, got, want)
				}
				checked++
			}
			for i := range c.paths {
				if !slices.Equal(r.Paths[i], c.paths[i]) {
					t.Fatalf("%s: path %d changed from %v to %v", c.name, i, c.paths[i], r.Paths[i])
				}
			}
		}
	}
	if checked < 200 {
		t.Fatalf("only %d cases checked", checked)
	}
}
