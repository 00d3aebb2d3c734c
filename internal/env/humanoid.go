package env

import (
	"math"

	"stellaris/internal/rng"
)

func init() { Register("humanoid", func() Env { return NewHumanoid() }) }

// humanoidLinks is the number of articulated links in the chain.
const humanoidLinks = 8

// Humanoid is an 8-link torque-actuated balance-and-locomote chain
// standing in for MuJoCo's Humanoid: a serial chain of unit links on a
// driven base must stay upright while the base moves forward. With a
// 27-D observation and 9-D action it is the highest-dimensional and
// hardest-to-learn of the continuous tasks, preserving the difficulty
// ordering of the paper's benchmark suite (Humanoid curves climb far
// more slowly than Hopper's in Figs. 6-7).
//
//	r = alive(5.0) + 1.25·vx - 0.1·Σa²
type Humanoid struct {
	baseX, baseV float64
	theta        [humanoidLinks]float64 // link angles from vertical
	omega        [humanoidLinks]float64 // angular velocities
	steps        int
	done         bool
}

// NewHumanoid returns the N-link humanoid environment.
func NewHumanoid() *Humanoid { return &Humanoid{} }

// ObsDim implements Env.
func (h *Humanoid) ObsDim() int { return 2 + 3*humanoidLinks + 1 } // 27

// ActionSpace implements Env.
func (h *Humanoid) ActionSpace() ActionSpace {
	return ActionSpace{Continuous: true, Dim: humanoidLinks + 1, Low: -1, High: 1}
}

// MaxEpisodeSteps is the horizon after which episodes truncate.
func (h *Humanoid) MaxEpisodeSteps() int { return 1000 }

// Reset implements Env.
func (h *Humanoid) Reset(r *rng.RNG) []float64 {
	h.baseX, h.baseV = 0, 0
	for i := range h.theta {
		h.theta[i] = 0.03 * r.NormFloat64()
		h.omega[i] = 0.03 * r.NormFloat64()
	}
	h.steps = 0
	h.done = false
	return h.obs()
}

// tipHeight returns the height of the chain tip (max humanoidLinks when
// perfectly upright, each link having unit length).
func (h *Humanoid) tipHeight() float64 {
	var z float64
	for _, t := range h.theta {
		z += math.Cos(t)
	}
	return z
}

func (h *Humanoid) obs() []float64 {
	o := make([]float64, 0, h.ObsDim())
	o = append(o, clip(h.baseV, -10, 10), h.tipHeight()/humanoidLinks)
	for i := 0; i < humanoidLinks; i++ {
		o = append(o, math.Sin(h.theta[i]), math.Cos(h.theta[i]), clip(h.omega[i], -10, 10))
	}
	o = append(o, clip(h.baseX-math.Floor(h.baseX), 0, 1))
	return o
}

// Step implements Env. Dynamics: each link behaves as a damped inverted
// pendulum coupled to its neighbours through joint springs; link i feels
// gravity destabilization proportional to sin(θ_i), joint torque a_i,
// coupling to adjacent links, and base acceleration reaction.
func (h *Humanoid) Step(action []float64) ([]float64, float64, bool) {
	if h.done {
		return h.obs(), 0, true
	}
	const (
		dt       = 0.004
		sub      = 5
		gInst    = 6.0  // gravity destabilization gain
		couple   = 14.0 // joint coupling stiffness
		jointMax = 8.0  // torque scale
		damp     = 1.2
		baseAcc  = 4.0
	)
	baseA := baseAcc * clip(action[humanoidLinks], -1, 1)
	for s := 0; s < sub; s++ {
		var alpha [humanoidLinks]float64
		for i := 0; i < humanoidLinks; i++ {
			tq := jointMax * clip(action[i], -1, 1)
			a := gInst*math.Sin(h.theta[i]) + tq - damp*h.omega[i]
			// Base acceleration destabilizes the bottom link.
			if i == 0 {
				a -= baseA * math.Cos(h.theta[i])
			}
			// Neighbour coupling pulls joints toward alignment.
			if i > 0 {
				a += couple * (h.theta[i-1] - h.theta[i])
			}
			if i < humanoidLinks-1 {
				a += couple * (h.theta[i+1] - h.theta[i])
			}
			alpha[i] = a
		}
		for i := 0; i < humanoidLinks; i++ {
			h.omega[i] += dt * alpha[i]
			h.theta[i] += dt * h.omega[i]
		}
		h.baseV += dt * baseA
		h.baseV *= 1 - dt*0.4 // ground friction
		h.baseX += dt * h.baseV
	}
	h.steps++

	upright := h.tipHeight() / humanoidLinks // 1 when fully upright
	reward := 5.0 + 1.25*h.baseV - controlCost(0.1, action)
	fell := upright < 0.6
	h.done = fell || h.steps >= h.MaxEpisodeSteps()
	if fell {
		reward = 0
	}
	return h.obs(), reward, h.done
}
