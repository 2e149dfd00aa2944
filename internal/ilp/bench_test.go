package ilp

import (
	"context"
	"testing"
)

// BenchmarkSetCover measures the branch-and-bound search on a dense random
// instance.
func BenchmarkSetCover(b *testing.B) {
	sets, universe := hardCoverInstance(9, 110, 48, 0.10)
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := SetCover(context.Background(), sets, universe, Options{})
			if err != nil {
				b.Fatal(err)
			}
			if !res.Optimal {
				b.Fatal("benchmark instance must solve to optimality")
			}
		}
	})
}

// BenchmarkPartialCover measures the quota-covering search used by the
// Table III coverage ladder.
func BenchmarkPartialCover(b *testing.B) {
	sets, universe := hardCoverInstance(43, 80, 30, 0.12)
	quota := universe.Count() * 9 / 10
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := PartialCover(context.Background(), sets, universe, quota, Options{})
			if err != nil {
				b.Fatal(err)
			}
			if !res.Optimal {
				b.Fatal("benchmark instance must solve to optimality")
			}
		}
	})
}
