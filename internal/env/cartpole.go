package env

import (
	"math"

	"stellaris/internal/rng"
)

func init() { Register("cartpole", func() Env { return NewCartPole() }) }

// CartPole is the classic pole-balancing control task (Barto, Sutton &
// Anderson 1983) with the standard Gym dynamics and reward (+1 per step
// alive). It is cheap and has a well-known learnability profile, which
// makes it the reference task for the test suite and the quickstart.
type CartPole struct {
	x, xDot, theta, thetaDot float64
	steps                    int
	done                     bool
}

// NewCartPole returns a CartPole environment.
func NewCartPole() *CartPole { return &CartPole{} }

// ObsDim implements Env.
func (c *CartPole) ObsDim() int { return 4 }

// ActionSpace implements Env.
func (c *CartPole) ActionSpace() ActionSpace { return ActionSpace{N: 2} }

// MaxEpisodeSteps is the horizon after which episodes truncate.
func (c *CartPole) MaxEpisodeSteps() int { return 500 }

// Reset implements Env.
func (c *CartPole) Reset(r *rng.RNG) []float64 {
	c.x = 0.1 * (2*r.Float64() - 1)
	c.xDot = 0.1 * (2*r.Float64() - 1)
	c.theta = 0.1 * (2*r.Float64() - 1)
	c.thetaDot = 0.1 * (2*r.Float64() - 1)
	c.steps = 0
	c.done = false
	return c.obs()
}

func (c *CartPole) obs() []float64 {
	return []float64{c.x, c.xDot, c.theta, c.thetaDot}
}

// Step implements Env.
func (c *CartPole) Step(action []float64) ([]float64, float64, bool) {
	const (
		gravity   = 9.8
		massCart  = 1.0
		massPole  = 0.1
		totalMass = massCart + massPole
		length    = 0.5 // half-pole length
		forceMag  = 10.0
		dt        = 0.02
		thetaMax  = 12 * math.Pi / 180
		xMax      = 2.4
	)
	if c.done {
		return c.obs(), 0, true
	}
	force := -forceMag
	if int(action[0]) == 1 {
		force = forceMag
	}
	cosT, sinT := math.Cos(c.theta), math.Sin(c.theta)
	poleMassLen := massPole * length
	temp := (force + poleMassLen*c.thetaDot*c.thetaDot*sinT) / totalMass
	thetaAcc := (gravity*sinT - cosT*temp) /
		(length * (4.0/3.0 - massPole*cosT*cosT/totalMass))
	xAcc := temp - poleMassLen*thetaAcc*cosT/totalMass

	c.x += dt * c.xDot
	c.xDot += dt * xAcc
	c.theta += dt * c.thetaDot
	c.thetaDot += dt * thetaAcc
	c.steps++

	fell := c.x < -xMax || c.x > xMax || c.theta < -thetaMax || c.theta > thetaMax
	c.done = fell || c.steps >= c.MaxEpisodeSteps()
	return c.obs(), 1.0, c.done
}
