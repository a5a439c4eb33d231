package scenarios

import (
	"math/rand"
	"testing"

	"repro/internal/routenet"
	"repro/internal/routing"
)

// TestRouteNetSystemOutputAllocs guards the allocation count of one masked
// evaluation, the unit of work the critical-connection search repeats. The
// RouteNet* forward passes behind it reuse the model's buffers, so what
// remains is one choice distribution per demand and the growth of the
// concatenated output.
func TestRouteNetSystemOutputAllocs(t *testing.T) {
	const demands, maxAllocs = 10, 20
	g := NSFNetGraph()
	opt := &routenet.Optimizer{Model: routenet.NewModel(41), Graph: g}
	sys := &RouteNetSystem{Opt: opt, Routing: opt.Route(routing.RandomDemands(g, demands, 3, 9, 907))}
	rng := rand.New(rand.NewSource(1))
	m := make([]float64, sys.NumConnections())
	for i := range m {
		m[i] = rng.Float64()
	}
	for name, mask := range map[string][]float64{"masked": m, "unmasked": nil} {
		sys.Output(mask)
		if allocs := testing.AllocsPerRun(20, func() { sys.Output(mask) }); allocs > maxAllocs {
			t.Errorf("%s Output allocates %.0f times per call, want at most %d", name, allocs, maxAllocs)
		}
	}
}
