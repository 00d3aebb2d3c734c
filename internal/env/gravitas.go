package env

import (
	"math"

	"stellaris/internal/rng"
)

func init() { Register("gravitas", func() Env { return NewGravitas(DefaultFrameSize) }) }

// Gravitas is a thrust-vector navigation game standing in for Atari
// Gravitar: a ship under constant gravity must rotate and thrust to
// reach a sequence of beacons without crashing into the terrain floor or
// drifting off-screen. Like Gravitar it demands momentum management
// under gravity with a sparse milestone reward (+20 per beacon, +100 for
// collecting all), and is the hardest of the three discrete tasks —
// matching Gravitar's notoriety in the paper's benchmark suite.
type Gravitas struct {
	size int

	x, y, vx, vy float64 // ship state in [0,1) world units
	heading      float64
	fuel         float64

	beacons [][2]float64
	hit     []bool

	r     *rng.RNG
	fs    *frameStack
	steps int
	done  bool
}

// NewGravitas builds the game with the given square frame size.
func NewGravitas(frameSize int) *Gravitas {
	return &Gravitas{size: frameSize, fs: newFrameStack(frameSize)}
}

// ObsDim implements Env.
func (g *Gravitas) ObsDim() int { return 3 * g.size * g.size }

// FrameSize returns the frame edge length.
func (g *Gravitas) FrameSize() int { return g.size }

// ActionSpace implements Env. Five actions: noop, rotate-left,
// rotate-right, thrust, brake-thrust (retrograde).
func (g *Gravitas) ActionSpace() ActionSpace { return ActionSpace{N: 5} }

// MaxEpisodeSteps is the horizon after which episodes truncate.
func (g *Gravitas) MaxEpisodeSteps() int { return 400 }

// Reset implements Env.
func (g *Gravitas) Reset(r *rng.RNG) []float64 {
	g.r = r
	g.x, g.y = 0.5, 0.25
	g.vx, g.vy = 0, 0
	g.heading = -math.Pi / 2 // pointing up (screen y grows downward)
	g.fuel = 1
	g.beacons = g.beacons[:0]
	g.hit = g.hit[:0]
	for i := 0; i < 3; i++ {
		g.beacons = append(g.beacons, [2]float64{
			0.15 + 0.7*r.Float64(),
			0.35 + 0.45*r.Float64(),
		})
		g.hit = append(g.hit, false)
	}
	g.steps = 0
	g.done = false
	g.fs.reset()
	g.render()
	return g.fs.obs()
}

func (g *Gravitas) render() {
	f := g.fs.scratch()
	px := func(v float64) int { return int(v * float64(g.size)) }
	// Terrain floor.
	fillRect(f, g.size, 0, g.size-2, g.size, 2, 0.5)
	// Beacons.
	for i, b := range g.beacons {
		if !g.hit[i] {
			fillRect(f, g.size, px(b[0])-1, px(b[1])-1, 3, 3, 0.7)
		}
	}
	// Ship body plus a nose pixel indicating heading.
	fillRect(f, g.size, px(g.x)-1, px(g.y)-1, 3, 3, 1.0)
	nx := px(g.x + 0.04*math.Cos(g.heading))
	ny := px(g.y + 0.04*math.Sin(g.heading))
	fillRect(f, g.size, nx, ny, 1, 1, 0.9)
	g.fs.push(f)
}

// Step implements Env.
func (g *Gravitas) Step(action []float64) ([]float64, float64, bool) {
	if g.done {
		return g.fs.obs(), 0, true
	}
	const (
		dt      = 0.03
		gravity = 0.12 // downward (positive y)
		turn    = 0.35
		power   = 0.30
	)
	reward := 0.0
	switch int(action[0]) {
	case 1:
		g.heading -= turn
	case 2:
		g.heading += turn
	case 3:
		if g.fuel > 0 {
			g.vx += dt * power * math.Cos(g.heading)
			g.vy += dt * power * math.Sin(g.heading)
			g.fuel -= dt * 0.2
		}
	case 4:
		// Retrograde brake: thrust against the velocity vector.
		if g.fuel > 0 {
			sp := math.Hypot(g.vx, g.vy)
			if sp > 1e-6 {
				g.vx -= dt * power * g.vx / sp
				g.vy -= dt * power * g.vy / sp
				g.fuel -= dt * 0.2
			}
		}
	}
	g.vy += dt * gravity
	g.x += dt * g.vx
	g.y += dt * g.vy

	// Beacon pickups.
	all := true
	for i, b := range g.beacons {
		if g.hit[i] {
			continue
		}
		if math.Hypot(g.x-b[0], g.y-b[1]) < 0.06 {
			g.hit[i] = true
			reward += 20
		} else {
			all = false
		}
	}
	if all {
		reward += 100
	}

	crashed := g.y >= 0.97 || g.x < 0 || g.x > 1 || g.y < 0
	g.steps++
	g.done = crashed || all || g.steps >= g.MaxEpisodeSteps()
	g.render()
	return g.fs.obs(), reward, g.done
}
