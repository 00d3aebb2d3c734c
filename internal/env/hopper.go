package env

import (
	"math"

	"stellaris/internal/rng"
)

func init() { Register("hopper", func() Env { return NewHopper() }) }

// Hopper is a planar spring-loaded-inverted-pendulum (SLIP) hopper, the
// canonical reduced model of MuJoCo's Hopper task. A point-mass body
// rides a massless springy leg; the policy chooses leg thrust, the
// flight-phase attack angle, and a stance hip force, and is rewarded for
// staying up and moving forward:
//
//	r = alive(1.0) + vx - 0.001·Σa²
//
// with termination when the body falls below a survivable height. The
// task retains the properties the paper's figures depend on: continuous
// 3-D actions, dense shaped reward, and early termination that punishes
// unstable policy updates.
type Hopper struct {
	x, z, vx, vz float64 // body state
	phi          float64 // leg angle from vertical (positive forward)
	footX        float64 // stance anchor
	stance       bool
	legLen       float64 // current leg length (stance)
	legVel       float64 // leg length rate (stance)
	thrust       float64 // actuated rest-length extension
	steps        int
	done         bool
}

// NewHopper returns a SLIP hopper environment.
func NewHopper() *Hopper { return &Hopper{} }

// ObsDim implements Env.
func (h *Hopper) ObsDim() int { return 11 }

// ActionSpace implements Env.
func (h *Hopper) ActionSpace() ActionSpace {
	return ActionSpace{Continuous: true, Dim: 3, Low: -1, High: 1}
}

// MaxEpisodeSteps is the horizon after which episodes truncate.
func (h *Hopper) MaxEpisodeSteps() int { return 1000 }

// Reset implements Env.
func (h *Hopper) Reset(r *rng.RNG) []float64 {
	h.x = 0
	h.z = 1.05 + 0.02*r.NormFloat64()
	h.vx = 0.05 * r.NormFloat64()
	h.vz = 0
	h.phi = 0.02 * r.NormFloat64()
	h.stance = false
	h.legLen = legRest
	h.legVel = 0
	h.thrust = 0
	h.steps = 0
	h.done = false
	return h.obs()
}

const (
	legRest    = 1.0   // leg rest length
	legSpring  = 300.0 // spring constant (N/m for unit mass)
	legDamp    = 4.0   // spring damping
	hopGravity = 9.81
	hopDt      = 0.002 // integrator step
	hopSub     = 10    // substeps per control step
	servoRate  = 12.0  // flight attack-angle servo gain
)

func (h *Hopper) obs() []float64 {
	stanceFlag := 0.0
	footRel := legRest * math.Sin(h.phi)
	if h.stance {
		stanceFlag = 1
		footRel = h.x - h.footX
	}
	return []float64{
		h.z, h.vx, h.vz,
		math.Sin(h.phi), math.Cos(h.phi),
		h.legLen, h.legVel,
		stanceFlag, footRel,
		h.thrust,
		clip(h.vx, -10, 10) * 0.1,
	}
}

// Step implements Env.
func (h *Hopper) Step(action []float64) ([]float64, float64, bool) {
	if h.done {
		return h.obs(), 0, true
	}
	aThrust := clip(action[0], -1, 1)
	aAngle := clip(action[1], -1, 1)
	aHip := clip(action[2], -1, 1)

	h.thrust = 0.12 * (aThrust + 1) / 2 // rest-length extension in [0, 0.12]
	targetPhi := 0.45 * aAngle

	for s := 0; s < hopSub; s++ {
		if h.stance {
			// Leg vector from anchor to body.
			dx := h.x - h.footX
			dz := h.z
			l := math.Hypot(dx, dz)
			if l < 1e-6 {
				l = 1e-6
			}
			ux, uz := dx/l, dz/l
			// Radial velocity along the leg.
			lDot := h.vx*ux + h.vz*uz
			h.legLen, h.legVel = l, lDot
			rest := legRest + h.thrust
			if l >= rest && lDot > 0 {
				// Spring back at rest and extending: liftoff.
				h.stance = false
			} else {
				f := legSpring*(rest-l) - legDamp*lDot
				if f < 0 {
					f = 0 // the ground cannot pull
				}
				ax := f*ux + 3.0*aHip
				az := f*uz - hopGravity
				h.vx += hopDt * ax
				h.vz += hopDt * az
			}
		}
		if !h.stance {
			// Flight: ballistic body, servo the attack angle.
			h.phi += hopDt * servoRate * (targetPhi - h.phi)
			h.vz -= hopDt * hopGravity
			h.legLen, h.legVel = legRest, 0
			// Touchdown detection.
			footZ := h.z - legRest*math.Cos(h.phi)
			if footZ <= 0 && h.vz < 0 {
				h.stance = true
				h.footX = h.x + legRest*math.Sin(h.phi)
			}
		}
		h.x += hopDt * h.vx
		h.z += hopDt * h.vz
	}
	h.steps++

	reward := 1.0 + h.vx - controlCost(0.001, action)
	fell := h.z < 0.45 || h.z > 3.0 || math.Abs(h.vx) > 15
	h.done = fell || h.steps >= h.MaxEpisodeSteps()
	if fell {
		reward = 0
	}
	return h.obs(), reward, h.done
}
