package synth

import "math/rand"

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	lehmerA  = 48271
	lehmerM  = 1<<31 - 1
	zeroSeed = 89482311 // what rngSource.Seed substitutes for a seed ≡ 0 mod M
)

// historicSource is a rand.Source64 whose streams are bit-identical to
// rand.NewSource(seed)'s: the same 607-word additive lagged-Fibonacci
// register tapped at 273, holding the same seeded values. Only when the
// register is filled differs.
//
// rngSource.Seed fills all 607 words up front with 1,841 chained steps of
// the Lehmer generator x ↦ A·x mod M (A = 48271, M = 2³¹−1), although a
// sampled component-hour usually draws a few hundred values and so reads
// fewer than half of the words. The steps are plain multiplications modulo a
// prime, so word i has a closed form in the normalised seed x0: its three
// Lehmer values are x0·A^(21+3i), then ·A and ·A again, mod M. Seed
// therefore only stores x0 and starts a new generation; a word is computed
// from the precomputed power A^(21+3i) the first time a draw reads it, and
// its generation stamp marks it live for the rest of that seed.
type historicSource struct {
	tap, feed int
	x0        uint64 // normalised seed, in [1, M-1]
	gen       uint32 // current seed generation; word i is live iff stamp[i] == gen
	stamp     [rngLen]uint32
	vec       [rngLen]int64
}

var _ rand.Source64 = (*historicSource)(nil)

// seedPowers[i] is A^(21+3i) mod M: rngSource.Seed discards 20 Lehmer
// steps and then spends three per word.
var seedPowers = func() (p [rngLen]uint64) {
	x := uint64(1)
	for k := 0; k < 21; k++ {
		x = mulModM(x, lehmerA)
	}
	for i := range p {
		p[i] = x
		x = mulModM(mulModM(mulModM(x, lehmerA), lehmerA), lehmerA)
	}
	return p
}()

// mulModM returns a·b mod M for a and b in [1, M). M = 2³¹−1 is a Mersenne
// prime, so the product folds at bit 31 and needs one conditional
// subtraction; it is never 0 mod M, so the fold never lands on M itself.
func mulModM(a, b uint64) uint64 {
	p := a * b
	p = p&lehmerM + p>>31
	if p >= lehmerM {
		p -= lehmerM
	}
	return p
}

// newHistoricSource returns a source seeded like rand.NewSource(seed).
func newHistoricSource(seed int64) *historicSource {
	s := &historicSource{}
	s.Seed(seed)
	return s
}

// Seed resets the source to the state rand.NewSource(seed) starts in.
func (s *historicSource) Seed(seed int64) {
	s.tap, s.feed = 0, rngLen-rngTap
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = zeroSeed
	}
	s.x0 = uint64(seed)
	s.gen++
	if s.gen == 0 {
		// The counter wrapped: stamps left from 2³² seeds ago would read
		// as live, so clear them all.
		s.stamp = [rngLen]uint32{}
		s.gen = 1
	}
}

// word returns register word i, computing its seeded value on first read.
func (s *historicSource) word(i int) int64 {
	if s.stamp[i] == s.gen {
		return s.vec[i]
	}
	x := mulModM(s.x0, seedPowers[i])
	y := mulModM(x, lehmerA)
	z := mulModM(y, lehmerA)
	u := int64(x)<<40 ^ int64(y)<<20 ^ int64(z) ^ rngCooked[i]
	s.vec[i], s.stamp[i] = u, s.gen
	return u
}

// Uint64 returns the next 64-bit value of the stream.
func (s *historicSource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.word(s.feed) + s.word(s.tap)
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns the next value of the stream as a non-negative int64.
func (s *historicSource) Int63() int64 { return int64(s.Uint64() & rngMask) }
