package env

import (
	"math"

	"stellaris/internal/rng"
)

func init() { Register("walker2d", func() Env { return NewWalker() }) }

// Walker is a dual-leg SLIP walker standing in for MuJoCo's Walker2d: a
// point-mass body supported by two independently actuated springy legs.
// Each leg has its own thrust, attack-angle and hip-force channels
// (6-D action), and locomotion requires coordinating alternating stance
// phases — a strictly harder credit-assignment problem than the hopper's,
// matching the relative difficulty ordering of the paper's tasks.
//
//	r = alive(1.0) + vx - 0.001·Σa²
type Walker struct {
	x, z, vx, vz float64
	legs         [2]walkerLeg
	steps        int
	done         bool
}

type walkerLeg struct {
	phi    float64
	footX  float64
	stance bool
	length float64
	rate   float64
	thrust float64
}

// NewWalker returns a dual-SLIP walker environment.
func NewWalker() *Walker { return &Walker{} }

// ObsDim implements Env.
func (w *Walker) ObsDim() int { return 17 }

// ActionSpace implements Env.
func (w *Walker) ActionSpace() ActionSpace {
	return ActionSpace{Continuous: true, Dim: 6, Low: -1, High: 1}
}

// MaxEpisodeSteps is the horizon after which episodes truncate.
func (w *Walker) MaxEpisodeSteps() int { return 1000 }

// Reset implements Env.
func (w *Walker) Reset(r *rng.RNG) []float64 {
	w.x = 0
	w.z = 1.05 + 0.02*r.NormFloat64()
	w.vx = 0.05 * r.NormFloat64()
	w.vz = 0
	for i := range w.legs {
		w.legs[i] = walkerLeg{
			phi:    0.05 * r.NormFloat64(),
			length: legRest,
		}
	}
	// Offset the legs so a gait can emerge from the initial condition.
	w.legs[0].phi += 0.1
	w.legs[1].phi -= 0.1
	w.steps = 0
	w.done = false
	return w.obs()
}

func (w *Walker) obs() []float64 {
	o := make([]float64, 0, 17)
	o = append(o, w.z, w.vx, w.vz)
	for i := range w.legs {
		l := &w.legs[i]
		stance := 0.0
		footRel := legRest * math.Sin(l.phi)
		if l.stance {
			stance = 1
			footRel = w.x - l.footX
		}
		o = append(o, math.Sin(l.phi), math.Cos(l.phi), l.length, l.rate, stance, footRel, l.thrust)
	}
	return o
}

// Step implements Env.
func (w *Walker) Step(action []float64) ([]float64, float64, bool) {
	if w.done {
		return w.obs(), 0, true
	}
	for s := 0; s < hopSub; s++ {
		var ax, az float64
		az -= hopGravity
		anySupport := false
		for i := range w.legs {
			l := &w.legs[i]
			aThrust := clip(action[i*3+0], -1, 1)
			aAngle := clip(action[i*3+1], -1, 1)
			aHip := clip(action[i*3+2], -1, 1)
			l.thrust = 0.12 * (aThrust + 1) / 2
			targetPhi := 0.45 * aAngle

			if l.stance {
				dx := w.x - l.footX
				dz := w.z
				ln := math.Hypot(dx, dz)
				if ln < 1e-6 {
					ln = 1e-6
				}
				ux, uz := dx/ln, dz/ln
				lDot := w.vx*ux + w.vz*uz
				l.length, l.rate = ln, lDot
				rest := legRest + l.thrust
				if ln >= rest && lDot > 0 {
					l.stance = false
				} else {
					f := legSpring*(rest-ln) - legDamp*lDot
					if f < 0 {
						f = 0
					}
					ax += f*ux + 3.0*aHip
					az += f * uz
					anySupport = true
				}
			}
			if !l.stance {
				l.phi += hopDt * servoRate * (targetPhi - l.phi)
				l.length, l.rate = legRest, 0
				footZ := w.z - legRest*math.Cos(l.phi)
				if footZ <= 0 && w.vz < 0 {
					l.stance = true
					l.footX = w.x + legRest*math.Sin(l.phi)
				}
			}
		}
		_ = anySupport
		w.vx += hopDt * ax
		w.vz += hopDt * az
		w.x += hopDt * w.vx
		w.z += hopDt * w.vz
	}
	w.steps++

	reward := 1.0 + w.vx - controlCost(0.001, action)
	fell := w.z < 0.45 || w.z > 3.0 || math.Abs(w.vx) > 15
	w.done = fell || w.steps >= w.MaxEpisodeSteps()
	if fell {
		reward = 0
	}
	return w.obs(), reward, w.done
}
