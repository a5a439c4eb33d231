// The goldens hold for GOARCH=amd64 below GOAMD64=v3 only: elsewhere (arm64,
// ppc64le, s390x, riscv64, amd64.v3) the compiler may fuse a*b+c into one
// FMA, which rounds once and moves the float bits. The same-process
// reference-equivalence tests in internal/routenet stay portable.

//go:build amd64 && !amd64.v3

package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/abr"
	"repro/internal/metis/dtree"
	"repro/internal/metis/mask"
	"repro/internal/pensieve"
	"repro/internal/routenet"
	"repro/internal/routing"
	"repro/internal/scenarios"
	"repro/internal/topo"
	"repro/internal/trace"
)

// The golden checksums below pin the paper outputs that sit on the teacher
// forward passes (nn dense layers, the RouteNet* message passing and the
// optimizer's choice distributions) bit for bit. They were captured before
// those passes were rewritten for speed; a kernel change that reorders a
// single floating-point sum moves them.
const (
	goldenMaskW          = "4a99e2b080309ffc7ca8ecddeca813922142288ff4c52850026b9e77e60d4231"
	goldenDistillTree    = "989dcbc99ae92b9e415283ff9710f217b8113119615d2ea48fc880236b8d68a0/5e35d017c0e74f00"
	goldenDistillTreeMod = "1c49fa98c16911d422f63be31df4090b7cc477000201b40504856c444b56a4ec/cc52e20f1a1fde1b"
)

// floatsChecksum hashes the IEEE-754 bits of xs.
func floatsChecksum(xs ...float64) string {
	h := sha256.New()
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// treeChecksum hashes every field of every node of t in pre-order. It stands
// in for the tree's bytes: Tree.MarshalBinary is gob, whose type ids follow
// the order in which the process first encodes each type, so its bytes for
// one tree differ between test binaries.
func treeChecksum(t *dtree.Tree) string {
	var xs []float64
	var walk func(n *dtree.Node)
	walk = func(n *dtree.Node) {
		xs = append(xs, float64(n.Feature), n.Threshold, float64(n.Class), n.Samples, n.Impurity,
			float64(len(n.ClassDist)), float64(len(n.Value)))
		xs = append(append(xs, n.ClassDist...), n.Value...)
		if !n.IsLeaf() {
			walk(n.Left)
			walk(n.Right)
		}
	}
	xs = append(xs, float64(t.NumFeatures), float64(t.NumClasses))
	walk(t.Root)
	return floatsChecksum(xs...)
}

// TestMaskSearchRouteNetGolden pins the critical-connection weights of the
// TestMaskSearchRouteNetWorkerInvariant instance (untrained NewModel(41), so
// it stays fast while running the full masked Output path).
func TestMaskSearchRouteNetGolden(t *testing.T) {
	g := topo.NSFNet(10)
	opt := &routenet.Optimizer{Model: routenet.NewModel(41), Graph: g}
	demands := routing.RandomDemands(g, 6, 3, 9, 913)
	sys := &RouteNetSystem{Opt: opt, Routing: opt.Route(demands)}
	res := mask.Search(sys, mask.Options{Iterations: 8, Seed: 3, Workers: 2})
	if got := floatsChecksum(res.W...); got != goldenMaskW {
		t.Fatalf("mask.Search W checksum = %s, want %s\nW = %v", got, goldenMaskW, res.W)
	}
}

// TestDistillPolicyGolden pins every node of a seeded DAgger distillation of
// a briefly trained Pensieve teacher, standard and with the Fig. 10(b) skip
// input, together with the fidelity each reports.
func TestDistillPolicyGolden(t *testing.T) {
	env := abr.NewEnv(abr.Config{
		Video:  abr.StandardVideo(24, 1),
		Traces: trace.HSDPA(4, 200, 7),
	})
	for _, tc := range []struct {
		name     string
		modified bool
		want     string
	}{
		{"standard", false, goldenDistillTree},
		{"modified", true, goldenDistillTreeMod},
	} {
		t.Run(tc.name, func(t *testing.T) {
			agent := pensieve.NewAgent(2, tc.modified)
			pensieve.Pretrain(agent, env, 40, 5)
			agent.A2C.Train(env, 16, 26, 6)
			res, err := dtree.DistillPolicy(env, agent, scenarios.PensieveDistillConfig(40, 2, 8, 26, 2))
			if err != nil {
				t.Fatal(err)
			}
			got := treeChecksum(res.Tree) + "/" + floatsChecksum(res.Fidelity)[:16]
			if got != tc.want {
				t.Fatalf("distilled tree checksum = %s, want %s (%d leaves, fidelity %v)",
					got, tc.want, res.Tree.NumLeaves(), res.Fidelity)
			}
		})
	}
}
