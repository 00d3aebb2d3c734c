// Package theory numerically validates the paper's §VI analysis:
// Theorem 1's O(1/√(Tb)) convergence rate for staleness-weighted SGD
// and Theorem 2's reward-improvement lower bound under importance-
// sampling truncation. Both are checked on exactly solvable substrates
// — small tabular MDPs with closed-form policy evaluation, and convex
// quadratic objectives — so the inequalities are verified against
// ground truth rather than estimates.
package theory

import (
	"math"

	"stellaris/internal/rng"
)

// MDP is a finite Markov decision process with S states and A actions.
// P[s][a][s'] is the transition probability and R[s][a] the expected
// reward.
type MDP struct {
	S, A int
	P    [][][]float64
	R    [][]float64
	// Start is the initial-state distribution.
	Start []float64
	Gamma float64
}

// RandomMDP samples a dense random MDP (Dirichlet-ish transitions via
// normalized exponentials, rewards in [0, 1]).
func RandomMDP(states, actions int, gamma float64, r *rng.RNG) *MDP {
	m := &MDP{S: states, A: actions, Gamma: gamma}
	m.P = make([][][]float64, states)
	m.R = make([][]float64, states)
	for s := 0; s < states; s++ {
		m.P[s] = make([][]float64, actions)
		m.R[s] = make([]float64, actions)
		for a := 0; a < actions; a++ {
			row := make([]float64, states)
			var sum float64
			for sp := range row {
				row[sp] = r.ExpFloat64()
				sum += row[sp]
			}
			for sp := range row {
				row[sp] /= sum
			}
			m.P[s][a] = row
			m.R[s][a] = r.Float64()
		}
	}
	m.Start = make([]float64, states)
	var sum float64
	for s := range m.Start {
		m.Start[s] = r.ExpFloat64()
		sum += m.Start[s]
	}
	for s := range m.Start {
		m.Start[s] /= sum
	}
	return m
}

// Policy is a stochastic tabular policy: Pi[s][a] = π(a|s).
type Policy [][]float64

// SoftmaxPolicy builds a policy from logits.
func SoftmaxPolicy(logits [][]float64) Policy {
	p := make(Policy, len(logits))
	for s, row := range logits {
		out := make([]float64, len(row))
		maxL := row[0]
		for _, l := range row[1:] {
			if l > maxL {
				maxL = l
			}
		}
		var sum float64
		for a, l := range row {
			out[a] = math.Exp(l - maxL)
			sum += out[a]
		}
		for a := range out {
			out[a] /= sum
		}
		p[s] = out
	}
	return p
}

// RandomLogits samples logits with the given scale.
func RandomLogits(states, actions int, scale float64, r *rng.RNG) [][]float64 {
	l := make([][]float64, states)
	for s := range l {
		l[s] = make([]float64, actions)
		for a := range l[s] {
			l[s][a] = scale * r.NormFloat64()
		}
	}
	return l
}

// VOf solves V^π = (I - γ P^π)⁻¹ R^π exactly by Gaussian elimination.
func (m *MDP) VOf(pi Policy) []float64 {
	n := m.S
	// Build the linear system (I - γ P^π) V = R^π.
	aug := make([][]float64, n)
	for s := 0; s < n; s++ {
		aug[s] = make([]float64, n+1)
		for sp := 0; sp < n; sp++ {
			var pss float64
			for a := 0; a < m.A; a++ {
				pss += pi[s][a] * m.P[s][a][sp]
			}
			aug[s][sp] = -m.Gamma * pss
		}
		aug[s][s] += 1
		var rs float64
		for a := 0; a < m.A; a++ {
			rs += pi[s][a] * m.R[s][a]
		}
		aug[s][n] = rs
	}
	// Gaussian elimination with partial pivoting.
	for col := 0; col < n; col++ {
		piv := col
		for row := col + 1; row < n; row++ {
			if math.Abs(aug[row][col]) > math.Abs(aug[piv][col]) {
				piv = row
			}
		}
		aug[col], aug[piv] = aug[piv], aug[col]
		pv := aug[col][col]
		for row := 0; row < n; row++ {
			if row == col || aug[row][col] == 0 {
				continue
			}
			f := aug[row][col] / pv
			for k := col; k <= n; k++ {
				aug[row][k] -= f * aug[col][k]
			}
		}
	}
	v := make([]float64, n)
	for s := 0; s < n; s++ {
		v[s] = aug[s][n] / aug[s][s]
	}
	return v
}

// QOf computes Q^π(s,a) = R(s,a) + γ Σ P(s'|s,a) V^π(s').
func (m *MDP) QOf(pi Policy) [][]float64 {
	v := m.VOf(pi)
	q := make([][]float64, m.S)
	for s := 0; s < m.S; s++ {
		q[s] = make([]float64, m.A)
		for a := 0; a < m.A; a++ {
			var ev float64
			for sp := 0; sp < m.S; sp++ {
				ev += m.P[s][a][sp] * v[sp]
			}
			q[s][a] = m.R[s][a] + m.Gamma*ev
		}
	}
	return q
}

// J returns the exact expected discounted return of π from the start
// distribution — the paper's J(π).
func (m *MDP) J(pi Policy) float64 {
	v := m.VOf(pi)
	var j float64
	for s, p0 := range m.Start {
		j += p0 * v[s]
	}
	return j
}

// AdvantageOf returns A^π(s,a) = Q^π(s,a) - V^π(s).
func (m *MDP) AdvantageOf(pi Policy) [][]float64 {
	v := m.VOf(pi)
	q := m.QOf(pi)
	adv := make([][]float64, m.S)
	for s := range q {
		adv[s] = make([]float64, m.A)
		for a := range q[s] {
			adv[s][a] = q[s][a] - v[s]
		}
	}
	return adv
}

// EpsilonOf computes ε^π ≐ max_s |E_{a~π}[A^μ(s,a)]| (Theorem 2's
// constant, following Achiam et al.'s Corollary 1).
func (m *MDP) EpsilonOf(pi Policy, mu Policy) float64 {
	advMu := m.AdvantageOf(mu)
	var eps float64
	for s := 0; s < m.S; s++ {
		var e float64
		for a := 0; a < m.A; a++ {
			e += pi[s][a] * advMu[s][a]
		}
		if ab := math.Abs(e); ab > eps {
			eps = ab
		}
	}
	return eps
}

// MaxRatio returns max_{s,a} π(a|s)/μ(a|s), the importance-sampling
// ratio Eq. 2 truncates.
func MaxRatio(pi, mu Policy) float64 {
	var mr float64
	for s := range pi {
		for a := range pi[s] {
			if mu[s][a] <= 0 {
				continue
			}
			if r := pi[s][a] / mu[s][a]; r > mr {
				mr = r
			}
		}
	}
	return mr
}

// TruncateRatios projects π so that no ratio π(a|s)/μ(a|s) exceeds rho,
// renormalizing each row — the tabular analogue of Eq. 2's truncation.
func TruncateRatios(pi, mu Policy, rho float64) Policy {
	out := make(Policy, len(pi))
	for s := range pi {
		row := make([]float64, len(pi[s]))
		var sum float64
		for a := range pi[s] {
			v := pi[s][a]
			if cap := rho * mu[s][a]; v > cap {
				v = cap
			}
			row[a] = v
			sum += v
		}
		if sum <= 0 {
			copy(row, mu[s])
		} else {
			for a := range row {
				row[a] /= sum
			}
		}
		out[s] = row
	}
	return out
}
