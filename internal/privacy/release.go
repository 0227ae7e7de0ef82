package privacy

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// The data store itself never leaves the campus (§3), but §5 anticipates
// cross-campus comparisons and industry collaborations built on *released
// aggregates* ("a campus network-based study may identify precisely-defined
// problem-specific small subsets of data"). Released counts go through an
// ε-differentially-private Laplace mechanism so no single user's traffic is
// identifiable from a release.

// ReleaseBudget tracks a release campaign's cumulative privacy loss and
// refuses queries past the agreed ε (sequential composition).
type ReleaseBudget struct {
	epsilonTotal float64
	spent        float64
	rng          *rand.Rand
}

// NewReleaseBudget creates a budget of epsilonTotal; seed makes releases
// reproducible in experiments (production would use crypto randomness).
func NewReleaseBudget(epsilonTotal float64, seed int64) (*ReleaseBudget, error) {
	if epsilonTotal <= 0 {
		return nil, fmt.Errorf("privacy: epsilon must be positive, got %v", epsilonTotal)
	}
	return &ReleaseBudget{
		epsilonTotal: epsilonTotal,
		rng:          rand.New(rand.NewSource(seed)),
	}, nil
}

// Remaining returns the unspent budget.
func (b *ReleaseBudget) Remaining() float64 { return b.epsilonTotal - b.spent }

// ReleaseHistogram releases a histogram under one epsilon charge: the
// buckets partition the data, so parallel composition applies and each
// bucket gets the full epsilon. Buckets draw their noise in key order, so
// one seed gives each bucket the same noise on every run.
func (b *ReleaseBudget) ReleaseHistogram(counts map[string]float64, sensitivity, epsilon float64) (map[string]float64, error) {
	if epsilon <= 0 || sensitivity <= 0 {
		return nil, fmt.Errorf("privacy: epsilon and sensitivity must be positive")
	}
	if b.spent+epsilon > b.epsilonTotal+1e-12 {
		return nil, fmt.Errorf("privacy: release budget exhausted")
	}
	b.spent += epsilon
	out := make(map[string]float64, len(counts))
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		n := counts[k] + b.laplace(sensitivity/epsilon)
		if n < 0 {
			n = 0
		}
		out[k] = n
	}
	return out, nil
}

// laplace draws Laplace(0, scale) noise by inverse CDF.
func (b *ReleaseBudget) laplace(scale float64) float64 {
	u := b.rng.Float64() - 0.5
	return -scale * math.Copysign(math.Log(1-2*math.Abs(u)), u)
}
