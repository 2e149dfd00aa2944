package circuit

import (
	"math/rand"
	"testing"
)

// TestLevelQueue checks the worklist contract: every pushed gate comes out
// once, in non-decreasing level, sources (level 0) are never queued, gates
// pushed while draining join the same drain, and a drained queue is
// clean for reuse.
func TestLevelQueue(t *testing.T) {
	c := MustGenerate(GenSpec{Name: "q", Gates: 200, FFs: 12, Inputs: 8, Outputs: 6, Depth: 10, Seed: 3})
	q := c.NewLevelQueue()
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 20; round++ {
		want := map[int]bool{}
		for i := 0; i < 30; i++ {
			id := rng.Intn(len(c.Gates))
			q.Push(id)
			q.Push(id) // duplicates are ignored
			if c.Level(id) > 0 {
				want[id] = true
			}
		}
		got, last := map[int]bool{}, 0
		for {
			id, ok := q.Next()
			if !ok {
				break
			}
			if got[id] {
				t.Fatalf("round %d: gate %d pulled twice", round, id)
			}
			if c.Level(id) < last {
				t.Fatalf("round %d: gate %d at level %d pulled after level %d", round, id, c.Level(id), last)
			}
			got[id], last = true, c.Level(id)
			// Push the fanouts while draining, as the simulators do.
			for _, fo := range c.Gates[id].Fanout {
				q.Push(fo)
				if c.Gates[fo].Kind != DFF {
					want[fo] = true
				}
			}
		}
		if len(got) != len(want) {
			t.Fatalf("round %d: pulled %d gates, want %d", round, len(got), len(want))
		}
		for id := range want {
			if !got[id] {
				t.Fatalf("round %d: gate %d never pulled", round, id)
			}
		}
	}
}
