// Package policy implements the action distributions Stellaris policies
// emit — diagonal Gaussians for continuous control and categoricals for
// discrete games — together with the analytic log-probability, entropy
// and KL gradients the policy-gradient losses need.
//
// A policy network's final layer outputs a flat "distribution parameter"
// row per state; this package interprets those rows. For Gaussians the
// row is [mean..., logStd...] (state-dependent log-stds keep every
// learnable inside the network weight vector, which is what the system
// serializes through the cache).
package policy

import (
	"fmt"
	"math"

	"stellaris/internal/rng"
)

const (
	log2Pi = 1.8378770664093453 // ln(2π)
	// logStdMin/Max clamp the Gaussian's log standard deviation; runaway
	// stds are the classic failure mode of unstable asynchronous updates
	// and the clamp keeps likelihood ratios finite so the IS-truncation
	// logic (not float overflow) is what bounds them.
	logStdMin = -5.0
	logStdMax = 2.0
)

// Distribution interprets per-state parameter rows as action
// distributions. Implementations are stateless and safe for concurrent
// use.
type Distribution interface {
	// ParamDim returns the network head width for this distribution.
	ParamDim() int
	// Sample draws an action given one parameter row.
	Sample(params []float64, r *rng.RNG) []float64
	// Mode returns the distribution's most likely action (used for
	// deterministic evaluation rollouts).
	Mode(params []float64) []float64
	// LogProb returns log π(action | params).
	LogProb(params, action []float64) float64
	// GradLogProb accumulates w · ∂logπ(action)/∂params into dst.
	GradLogProb(dst, params, action []float64, w float64)
	// Entropy returns the differential/Shannon entropy.
	Entropy(params []float64) float64
	// GradEntropy accumulates w · ∂H/∂params into dst.
	GradEntropy(dst, params []float64, w float64)
	// KL returns D_KL(p ‖ q) between two parameter rows.
	KL(p, q []float64) float64
	// GradKLP accumulates w · ∂D_KL(p‖q)/∂p into dst (gradient with
	// respect to the first argument, the current policy).
	GradKLP(dst, p, q []float64, w float64)
}

// clampLogStd bounds a raw network log-std output.
func clampLogStd(ls float64) float64 {
	if ls < logStdMin {
		return logStdMin
	}
	if ls > logStdMax {
		return logStdMax
	}
	return ls
}

// DiagGaussian is an independent multivariate normal over dim action
// coordinates; parameter rows are [μ₀..μ_{d-1}, logσ₀..logσ_{d-1}].
type DiagGaussian struct{ Dim int }

// NewDiagGaussian returns a diagonal Gaussian over dim coordinates.
func NewDiagGaussian(dim int) *DiagGaussian {
	if dim <= 0 {
		panic(fmt.Sprintf("policy: gaussian dim %d", dim))
	}
	return &DiagGaussian{Dim: dim}
}

// ParamDim implements Distribution.
func (g *DiagGaussian) ParamDim() int { return 2 * g.Dim }

// Sample implements Distribution.
func (g *DiagGaussian) Sample(params []float64, r *rng.RNG) []float64 {
	a := make([]float64, g.Dim)
	for i := 0; i < g.Dim; i++ {
		std := math.Exp(clampLogStd(params[g.Dim+i]))
		a[i] = params[i] + std*r.NormFloat64()
	}
	return a
}

// Mode implements Distribution.
func (g *DiagGaussian) Mode(params []float64) []float64 {
	a := make([]float64, g.Dim)
	copy(a, params[:g.Dim])
	return a
}

// LogProb implements Distribution.
func (g *DiagGaussian) LogProb(params, action []float64) float64 {
	var lp float64
	for i := 0; i < g.Dim; i++ {
		ls := clampLogStd(params[g.Dim+i])
		z := (action[i] - params[i]) / math.Exp(ls)
		lp += -0.5*z*z - ls - 0.5*log2Pi
	}
	return lp
}

// GradLogProb implements Distribution.
func (g *DiagGaussian) GradLogProb(dst, params, action []float64, w float64) {
	for i := 0; i < g.Dim; i++ {
		ls := clampLogStd(params[g.Dim+i])
		inv := math.Exp(-ls)
		z := (action[i] - params[i]) * inv
		dst[i] += w * z * inv // ∂/∂μ = (a-μ)/σ²
		if params[g.Dim+i] > logStdMin && params[g.Dim+i] < logStdMax {
			dst[g.Dim+i] += w * (z*z - 1) // ∂/∂logσ = z² - 1
		}
	}
}

// Entropy implements Distribution.
func (g *DiagGaussian) Entropy(params []float64) float64 {
	var h float64
	for i := 0; i < g.Dim; i++ {
		h += clampLogStd(params[g.Dim+i]) + 0.5*(log2Pi+1)
	}
	return h
}

// GradEntropy implements Distribution.
func (g *DiagGaussian) GradEntropy(dst, params []float64, w float64) {
	for i := 0; i < g.Dim; i++ {
		if params[g.Dim+i] > logStdMin && params[g.Dim+i] < logStdMax {
			dst[g.Dim+i] += w
		}
	}
}

// KL implements Distribution.
func (g *DiagGaussian) KL(p, q []float64) float64 {
	var kl float64
	for i := 0; i < g.Dim; i++ {
		lsP := clampLogStd(p[g.Dim+i])
		lsQ := clampLogStd(q[g.Dim+i])
		vP := math.Exp(2 * lsP)
		vQ := math.Exp(2 * lsQ)
		dMu := p[i] - q[i]
		kl += lsQ - lsP + (vP+dMu*dMu)/(2*vQ) - 0.5
	}
	return kl
}

// GradKLP implements Distribution.
func (g *DiagGaussian) GradKLP(dst, p, q []float64, w float64) {
	for i := 0; i < g.Dim; i++ {
		lsP := clampLogStd(p[g.Dim+i])
		lsQ := clampLogStd(q[g.Dim+i])
		vP := math.Exp(2 * lsP)
		vQ := math.Exp(2 * lsQ)
		dMu := p[i] - q[i]
		dst[i] += w * dMu / vQ // ∂KL/∂μ_p
		if p[g.Dim+i] > logStdMin && p[g.Dim+i] < logStdMax {
			dst[g.Dim+i] += w * (vP/vQ - 1) // ∂KL/∂logσ_p
		}
	}
}

// Categorical is a discrete distribution over N actions parameterized by
// unnormalized logits; sampled actions are encoded as a one-element
// []float64 holding the action index.
type Categorical struct{ N int }

// NewCategorical returns a categorical distribution over n actions.
func NewCategorical(n int) *Categorical {
	if n <= 1 {
		panic(fmt.Sprintf("policy: categorical over %d actions", n))
	}
	return &Categorical{N: n}
}

// ParamDim implements Distribution.
func (c *Categorical) ParamDim() int { return c.N }

// logSoftmax writes log-probabilities for logits into out.
func (c *Categorical) logSoftmax(logits []float64, out []float64) {
	maxL := logits[0]
	for _, l := range logits[1:] {
		if l > maxL {
			maxL = l
		}
	}
	var sum float64
	for i, l := range logits {
		out[i] = l - maxL
		sum += math.Exp(out[i])
	}
	lse := math.Log(sum)
	for i := range out {
		out[i] -= lse
	}
}

// Sample implements Distribution.
func (c *Categorical) Sample(params []float64, r *rng.RNG) []float64 {
	lp := make([]float64, c.N)
	c.logSoftmax(params, lp)
	u := r.Float64()
	var cum float64
	for i := 0; i < c.N; i++ {
		cum += math.Exp(lp[i])
		if u < cum {
			return []float64{float64(i)}
		}
	}
	return []float64{float64(c.N - 1)}
}

// Mode implements Distribution.
func (c *Categorical) Mode(params []float64) []float64 {
	best := 0
	for i, l := range params {
		if l > params[best] {
			best = i
		}
	}
	_ = params[best]
	return []float64{float64(best)}
}

// LogProb implements Distribution.
func (c *Categorical) LogProb(params, action []float64) float64 {
	lp := make([]float64, c.N)
	c.logSoftmax(params, lp)
	return lp[int(action[0])]
}

// GradLogProb implements Distribution.
func (c *Categorical) GradLogProb(dst, params, action []float64, w float64) {
	lp := make([]float64, c.N)
	c.logSoftmax(params, lp)
	a := int(action[0])
	for i := 0; i < c.N; i++ {
		g := -math.Exp(lp[i])
		if i == a {
			g++
		}
		dst[i] += w * g
	}
}

// Entropy implements Distribution.
func (c *Categorical) Entropy(params []float64) float64 {
	lp := make([]float64, c.N)
	c.logSoftmax(params, lp)
	var h float64
	for _, l := range lp {
		h -= math.Exp(l) * l
	}
	return h
}

// GradEntropy implements Distribution.
func (c *Categorical) GradEntropy(dst, params []float64, w float64) {
	lp := make([]float64, c.N)
	c.logSoftmax(params, lp)
	h := 0.0
	for _, l := range lp {
		h -= math.Exp(l) * l
	}
	for i, l := range lp {
		dst[i] += w * (-math.Exp(l) * (l + h))
	}
}

// KL implements Distribution.
func (c *Categorical) KL(p, q []float64) float64 {
	lpP := make([]float64, c.N)
	lpQ := make([]float64, c.N)
	c.logSoftmax(p, lpP)
	c.logSoftmax(q, lpQ)
	var kl float64
	for i := range lpP {
		kl += math.Exp(lpP[i]) * (lpP[i] - lpQ[i])
	}
	return kl
}

// GradKLP implements Distribution.
func (c *Categorical) GradKLP(dst, p, q []float64, w float64) {
	lpP := make([]float64, c.N)
	lpQ := make([]float64, c.N)
	c.logSoftmax(p, lpP)
	c.logSoftmax(q, lpQ)
	kl := 0.0
	for i := range lpP {
		kl += math.Exp(lpP[i]) * (lpP[i] - lpQ[i])
	}
	// ∂KL/∂l_j = p_j·((logp_j - logq_j) - KL)
	for i := range lpP {
		dst[i] += w * math.Exp(lpP[i]) * ((lpP[i] - lpQ[i]) - kl)
	}
}
