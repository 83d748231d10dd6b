package walk

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/osn"
)

// Path over a client attached to a shared cache must be exactly the plain
// stepping loop on every observable axis — identical node sequence and
// identical query and call meters — whatever the cache warmth: Path adds no
// accesses of its own (no prefetch, no lookahead) on top of the steps.
func TestPathLookaheadCostNeutral(t *testing.T) {
	g := gen.BarabasiAlbert(500, 3, rand.New(rand.NewSource(42)))
	const start, steps, seed = 0, 200, 9

	// manualPath replicates Path's stepping loop by hand.
	manualPath := func(c *osn.Client, d Design, rng *rand.Rand) []int {
		path := make([]int, 0, steps+1)
		u := start
		path = append(path, u)
		for i := 0; i < steps; i++ {
			u = d.Step(c, u, rng)
			path = append(path, u)
		}
		return path
	}

	for _, warm := range []string{"cold", "half", "full"} {
		for _, d := range []Design{SRW{}, MHRW{}} {
			// Two identical networks over the same graph, so each side has
			// its own cache hierarchy in an identical state.
			mkClient := func() *osn.Client {
				net := osn.NewNetwork(g)
				c := osn.NewClientShared(net, osn.CostUniqueNodes,
					rand.New(rand.NewSource(1)), osn.NewSharedCache())
				var ids []int32
				switch warm {
				case "half":
					for v := 0; v < g.NumNodes()/2; v++ {
						ids = append(ids, int32(v))
					}
				case "full":
					for v := 0; v < g.NumNodes(); v++ {
						ids = append(ids, int32(v))
					}
				}
				if ids != nil {
					// Warm through a sibling, so the walking client reads
					// fills it never made itself.
					c.Fork(rand.New(rand.NewSource(2))).Prefetch(ids)
				}
				return c
			}

			cA := mkClient()
			got := Path(cA, d, start, steps, rand.New(rand.NewSource(seed)))
			cB := mkClient()
			want := manualPath(cB, d, rand.New(rand.NewSource(seed)))

			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s/%s: step %d = %d, want %d (Path perturbed the walk)",
						warm, d.Name(), i, got[i], want[i])
				}
			}
			if got, want := cA.TotalQueries(), cB.TotalQueries(); got != want {
				t.Fatalf("%s/%s: Path changed query cost: %d vs %d",
					warm, d.Name(), got, want)
			}
			if got, want := cA.Calls(), cB.Calls(); got != want {
				t.Fatalf("%s/%s: Path changed call count: %d vs %d",
					warm, d.Name(), got, want)
			}
		}
	}
}
