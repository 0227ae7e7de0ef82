package traffic

import (
	"math"
	"math/rand"
)

// prng wraps a seeded PRNG with the distributions the generators draw from.
// All generation is deterministic given the seed, which is what makes the
// cross-campus reproducibility experiments exact.
type prng struct {
	r *rand.Rand
}

// newPRNG returns a deterministic prng for the given seed.
func newPRNG(seed int64) *prng {
	return &prng{r: rand.New(rand.NewSource(seed))}
}

// float64 returns a uniform draw in [0, 1).
func (g *prng) float64() float64 { return g.r.Float64() }

// intn returns a uniform draw in [0, n).
func (g *prng) intn(n int) int { return g.r.Intn(n) }

// Uint64 returns a uniform 64-bit draw.
func (g *prng) Uint64() uint64 { return g.r.Uint64() }

// exp returns an exponential draw with the given mean.
func (g *prng) exp(mean float64) float64 { return g.r.ExpFloat64() * mean }

// pareto returns a bounded pareto draw with shape alpha and scale xm.
// Heavy-tailed flow sizes in campus traffic follow this shape.
func (g *prng) pareto(xm, alpha float64) float64 {
	u := g.r.Float64()
	for u == 0 {
		u = g.r.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// logNormal returns a draw from exp(N(mu, sigma)).
func (g *prng) logNormal(mu, sigma float64) float64 {
	return math.Exp(g.r.NormFloat64()*sigma + mu)
}

// normal returns a draw from N(mu, sigma).
func (g *prng) normal(mu, sigma float64) float64 {
	return g.r.NormFloat64()*sigma + mu
}

// zipf returns a draw in [0, n) with Zipfian popularity (s=1.2), used for
// destination/domain popularity.
func (g *prng) zipf(n int) int {
	if n <= 1 {
		return 0
	}
	// Inverse-CDF sampling over a truncated zeta distribution; n is small
	// (domain and host catalogs), so a linear walk is fine and avoids
	// keeping per-n state.
	const s = 1.2
	u := g.r.Float64()
	var total float64
	for i := 1; i <= n; i++ {
		total += 1 / math.Pow(float64(i), s)
	}
	u *= total
	var acc float64
	for i := 1; i <= n; i++ {
		acc += 1 / math.Pow(float64(i), s)
		if u <= acc {
			return i - 1
		}
	}
	return n - 1
}

// bool returns true with probability p.
func (g *prng) bool(p float64) bool { return g.r.Float64() < p }
