package synth

import (
	"math"
	"math/rand"
	"testing"
)

// historicDraws is how many values each stream comparison draws: more
// than the 607-word register, so the feedback wraps and re-reads words
// the lazy seeding computed.
const historicDraws = 3000

// compareHistoric draws historicDraws values from got and want through the
// rand.Rand methods the sampler and its callers use, and fails on the
// first difference.
func compareHistoric(t *testing.T, seed int64, got, want *rand.Rand) {
	t.Helper()
	// Intn bounds cover the power-of-two mask, the Int31n rejection loop
	// and (past 2³¹−1) the Int63n path.
	bounds := []int{1, 2, 17, 1 << 10, 3600, 16000, 1<<31 - 1, 1 << 40, 3<<40 + 5}
	for i := 0; i < historicDraws; i++ {
		var g, w any
		switch i % 4 {
		case 0:
			g, w = got.Float64(), want.Float64()
		case 1:
			n := bounds[(i/4)%len(bounds)]
			g, w = got.Intn(n), want.Intn(n)
		case 2:
			g, w = got.Int63(), want.Int63()
		case 3:
			g, w = got.Uint64(), want.Uint64()
		}
		if g != w {
			t.Fatalf("seed %d, draw %d: historicSource gave %v, math/rand %v", seed, i, g, w)
		}
	}
}

// TestHistoricSourceMatchesMathRand pins the historic sampler's stream to
// math/rand's: for edge and random seeds, one pooled instance reseeded
// between them must reproduce rand.New(rand.NewSource(seed)) value for
// value, including after its generation counter wraps.
func TestHistoricSourceMatchesMathRand(t *testing.T) {
	seeds := []int64{
		0, 1, -1, zeroSeed,
		lehmerM, -lehmerM, 2 * lehmerM,
		math.MinInt64, math.MaxInt64,
	}
	pick := rand.New(rand.NewSource(20200315))
	for i := 0; i < 300; i++ {
		seeds = append(seeds, int64(pick.Uint64()))
	}

	src := newHistoricSource(0)
	pooled := rand.New(src)
	for _, seed := range seeds {
		pooled.Seed(seed)
		compareHistoric(t, seed, pooled, rand.New(rand.NewSource(seed)))
	}
	for _, seed := range seeds[:20] {
		compareHistoric(t, seed, rand.New(newHistoricSource(seed)), rand.New(rand.NewSource(seed)))
	}

	// Force the generation counter to wrap. The first seed leaves every
	// word stamped with generation 1, the value the counter restarts at,
	// so stale stamps would pass as live unless the wrap clears them.
	fresh := newHistoricSource(seeds[0])
	r := rand.New(fresh)
	compareHistoric(t, seeds[0], r, rand.New(rand.NewSource(seeds[0])))
	fresh.gen = math.MaxUint32
	r.Seed(seeds[1])
	if fresh.gen != 1 {
		t.Fatalf("generation after wrap = %d, want 1", fresh.gen)
	}
	compareHistoric(t, seeds[1], r, rand.New(rand.NewSource(seeds[1])))
}

// BenchmarkHistoricReseed measures one sampled component-hour's worth of
// PRNG work on the historic path: a reseed and 150 Float64 draws.
func BenchmarkHistoricReseed(b *testing.B) {
	r := rand.New(newHistoricSource(0))
	var sum float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Seed(int64(i))
		for j := 0; j < 150; j++ {
			sum += r.Float64()
		}
	}
	if sum < 0 {
		b.Fatal("negative draw")
	}
}
