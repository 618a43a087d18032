package sim

import "math/rand"

// math/rand's source seeds word i of its 607-word state from three
// consecutive steps x1, x2, x3 of the Lehmer generator x → 48271·x mod
// 2³¹−1, started at the seed and run 20 steps before word 0, so word i
// reads steps 21+3i to 23+3i. The word is x1<<40 ^ x2<<20 ^ x3 ^
// rngCooked[i], a fixed table of the package. The source's first output
// is word 333 plus word 606.
const (
	lehmerA = 48271
	lehmerM = 1<<31 - 1

	// rngCooked[333] and rngCooked[606] from math/rand/rng.go, fixed since
	// Go 1: the package keeps every seeded stream.
	cooked333 = -4633371852008891965
	cooked606 = 4152330101494654406
)

// firstWordJumps are 48271^(21+3i) mod 2³¹−1 for words 333 and 606: the
// multipliers that jump a seed ahead to the word's first step.
var firstWordJumps = [2]uint64{lehmerPow(21 + 3*333), lehmerPow(21 + 3*606)}

func lehmerPow(n int) uint64 {
	p, b := uint64(1), uint64(lehmerA)
	for ; n > 0; n >>= 1 {
		if n&1 == 1 {
			p = p * b % lehmerM
		}
		b = b * b % lehmerM
	}
	return p
}

// seedWord is the state word whose first step the seed jumps to by jump,
// XORed with the word's cooked constant.
func seedWord(seed, jump uint64, cooked int64) uint64 {
	x1 := seed * jump % lehmerM
	x2 := x1 * lehmerA % lehmerM
	x3 := x2 * lehmerA % lehmerM
	return (x1<<40 ^ x2<<20 ^ x3) ^ uint64(cooked)
}

// firstFloat64 returns rand.New(rand.NewSource(seed)).Float64() without
// seeding a 607-word source: it computes the two state words the first
// draw adds. A draw that rounds to 1, which Float64 resamples, falls back
// to a real source.
func firstFloat64(seed int64) float64 {
	s := seed % lehmerM
	if s < 0 {
		s += lehmerM
	}
	if s == 0 {
		s = 89482311 // math/rand's stand-in for a zero seed
	}
	sum := seedWord(uint64(s), firstWordJumps[0], cooked333) + seedWord(uint64(s), firstWordJumps[1], cooked606)
	f := float64(sum&(1<<63-1)) / (1 << 63)
	if f == 1 {
		return rand.New(rand.NewSource(seed)).Float64()
	}
	return f
}
