package env

import "stellaris/internal/rng"

func init() { Register("invaders", func() Env { return NewInvaders(DefaultFrameSize) }) }

// Invaders is a grid shooter standing in for Atari SpaceInvaders: a
// player ship at the bottom of the screen fires at a marching grid of
// descending aliens that drop bombs. Observations are stacked grayscale
// frames through the CNN policy path; rewards are scores for kills.
type Invaders struct {
	size, cell int
	grid       int

	px       int // player column
	cooldown int

	alien   []bool // row-major alive flags
	aRows   int
	aCols   int
	aOffX   int
	aOffY   int
	aDir    int
	aTimer  int
	aPeriod int

	shots [][2]int // player bullets (col, row), moving up
	bombs [][2]int // alien bombs (col, row), moving down

	r     *rng.RNG
	fs    *frameStack
	steps int
	done  bool
}

// NewInvaders builds the game with the given square frame size, which
// must be a multiple of the 11-cell logical grid... the cell size is
// frame/11 rounded down with the remainder used as margin.
func NewInvaders(frameSize int) *Invaders {
	g := &Invaders{size: frameSize, grid: 11, fs: newFrameStack(frameSize)}
	g.cell = frameSize / g.grid
	if g.cell < 1 {
		g.cell = 1
	}
	return g
}

// ObsDim implements Env.
func (g *Invaders) ObsDim() int { return 3 * g.size * g.size }

// FrameSize returns the frame edge length.
func (g *Invaders) FrameSize() int { return g.size }

// ActionSpace implements Env. The six actions mirror SpaceInvaders'
// minimal set: noop, left, right, fire, left+fire, right+fire.
func (g *Invaders) ActionSpace() ActionSpace { return ActionSpace{N: 6} }

// MaxEpisodeSteps is the horizon after which episodes truncate.
func (g *Invaders) MaxEpisodeSteps() int { return 500 }

// Reset implements Env.
func (g *Invaders) Reset(r *rng.RNG) []float64 {
	g.r = r
	g.px = g.grid / 2
	g.cooldown = 0
	g.aRows, g.aCols = 3, 6
	g.alien = make([]bool, g.aRows*g.aCols)
	for i := range g.alien {
		g.alien[i] = true
	}
	g.aOffX, g.aOffY = 1, 0
	g.aDir = 1
	g.aTimer, g.aPeriod = 0, 4
	g.shots = g.shots[:0]
	g.bombs = g.bombs[:0]
	g.steps = 0
	g.done = false
	g.fs.reset()
	g.render()
	return g.fs.obs()
}

func (g *Invaders) aliveCount() int {
	n := 0
	for _, a := range g.alien {
		if a {
			n++
		}
	}
	return n
}

// render draws the world into a fresh frame and pushes it on the stack.
func (g *Invaders) render() {
	f := g.fs.scratch()
	c := g.cell
	// Aliens.
	for row := 0; row < g.aRows; row++ {
		for col := 0; col < g.aCols; col++ {
			if g.alien[row*g.aCols+col] {
				fillRect(f, g.size, (g.aOffX+col)*c, (g.aOffY+row)*c, c, c, 0.6)
			}
		}
	}
	// Bullets and bombs.
	for _, s := range g.shots {
		fillRect(f, g.size, s[0]*c+c/3, s[1]*c, c/3+1, c, 0.9)
	}
	for _, b := range g.bombs {
		fillRect(f, g.size, b[0]*c+c/3, b[1]*c, c/3+1, c, 0.4)
	}
	// Player.
	fillRect(f, g.size, g.px*c, (g.grid-1)*c, c, c, 1.0)
	g.fs.push(f)
}

// Step implements Env.
func (g *Invaders) Step(action []float64) ([]float64, float64, bool) {
	if g.done {
		return g.fs.obs(), 0, true
	}
	a := int(action[0])
	reward := 0.0

	// Player movement and firing.
	switch a {
	case 1, 4:
		if g.px > 0 {
			g.px--
		}
	case 2, 5:
		if g.px < g.grid-1 {
			g.px++
		}
	}
	if g.cooldown > 0 {
		g.cooldown--
	}
	if (a == 3 || a == 4 || a == 5) && g.cooldown == 0 {
		g.shots = append(g.shots, [2]int{g.px, g.grid - 2})
		g.cooldown = 3
	}

	// Advance player bullets and resolve alien hits.
	keep := g.shots[:0]
	for _, s := range g.shots {
		s[1]--
		if s[1] < 0 {
			continue
		}
		col := s[0] - g.aOffX
		row := s[1] - g.aOffY
		if row >= 0 && row < g.aRows && col >= 0 && col < g.aCols && g.alien[row*g.aCols+col] {
			g.alien[row*g.aCols+col] = false
			reward += 10
			continue
		}
		keep = append(keep, s)
	}
	g.shots = keep

	// March the alien grid.
	g.aTimer++
	if g.aTimer >= g.aPeriod {
		g.aTimer = 0
		nx := g.aOffX + g.aDir
		if nx < 0 || nx+g.aCols > g.grid {
			g.aDir = -g.aDir
			g.aOffY++
		} else {
			g.aOffX = nx
		}
		// A random surviving alien drops a bomb.
		if n := g.aliveCount(); n > 0 && g.r.Float64() < 0.5 {
			k := g.r.Intn(n)
			for i, alive := range g.alien {
				if !alive {
					continue
				}
				if k == 0 {
					row, col := i/g.aCols, i%g.aCols
					g.bombs = append(g.bombs, [2]int{g.aOffX + col, g.aOffY + row + 1})
					break
				}
				k--
			}
		}
	}

	// Advance bombs and detect player hits.
	playerHit := false
	keepB := g.bombs[:0]
	for _, b := range g.bombs {
		b[1]++
		if b[1] >= g.grid {
			continue
		}
		if b[1] == g.grid-1 && b[0] == g.px {
			playerHit = true
			continue
		}
		keepB = append(keepB, b)
	}
	g.bombs = keepB

	cleared := g.aliveCount() == 0
	invaded := g.aOffY+g.aRows >= g.grid-1
	if cleared {
		reward += 50
	}
	g.steps++
	g.done = playerHit || invaded || cleared || g.steps >= g.MaxEpisodeSteps()
	g.render()
	return g.fs.obs(), reward, g.done
}
