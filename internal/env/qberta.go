package env

import "stellaris/internal/rng"

func init() { Register("qberta", func() Env { return NewQberta(DefaultFrameSize) }) }

// qRows is the pyramid height.
const qRows = 6

// Qberta is a pyramid-hopping game standing in for Atari Qbert: the
// agent hops diagonally across a pyramid of cubes, coloring each cube it
// lands on, while evading a ball that bounces down from the top. It
// exercises the sparse, milestone-style reward profile of Qbert (+25 per
// newly colored cube, +100 for clearing the pyramid).
type Qberta struct {
	size, cell int

	row, idx   int // agent cube coordinates (row 0 = apex)
	colored    [][]bool
	ballRow    int
	ballIdx    int
	ballActive bool
	ballTimer  int

	r     *rng.RNG
	fs    *frameStack
	steps int
	done  bool
}

// NewQberta builds the game with the given square frame size.
func NewQberta(frameSize int) *Qberta {
	q := &Qberta{size: frameSize, fs: newFrameStack(frameSize)}
	q.cell = frameSize / (qRows + 2)
	if q.cell < 1 {
		q.cell = 1
	}
	q.colored = make([][]bool, qRows)
	for r := range q.colored {
		q.colored[r] = make([]bool, r+1)
	}
	return q
}

// ObsDim implements Env.
func (q *Qberta) ObsDim() int { return 3 * q.size * q.size }

// FrameSize returns the frame edge length.
func (q *Qberta) FrameSize() int { return q.size }

// ActionSpace implements Env. Four diagonal hops: up-left, up-right,
// down-left, down-right.
func (q *Qberta) ActionSpace() ActionSpace { return ActionSpace{N: 4} }

// MaxEpisodeSteps is the horizon after which episodes truncate.
func (q *Qberta) MaxEpisodeSteps() int { return 400 }

// Reset implements Env.
func (q *Qberta) Reset(r *rng.RNG) []float64 {
	q.r = r
	q.row, q.idx = 0, 0
	for ri := range q.colored {
		for i := range q.colored[ri] {
			q.colored[ri][i] = false
		}
	}
	q.colored[0][0] = true
	q.ballActive = false
	q.ballTimer = 6
	q.steps = 0
	q.done = false
	q.fs.reset()
	q.render()
	return q.fs.obs()
}

// cubeXY returns the top-left pixel of cube (row, idx): the pyramid is
// centered horizontally, one cell per cube, rows descending.
func (q *Qberta) cubeXY(row, idx int) (int, int) {
	cx := q.size/2 - (row+1)*q.cell/2 + idx*q.cell
	cy := (row + 1) * q.cell
	return cx, cy
}

func (q *Qberta) render() {
	f := q.fs.scratch()
	for row := 0; row < qRows; row++ {
		for idx := 0; idx <= row; idx++ {
			x, y := q.cubeXY(row, idx)
			v := 0.3
			if q.colored[row][idx] {
				v = 0.65
			}
			fillRect(f, q.size, x, y, q.cell-1, q.cell-1, v)
		}
	}
	if q.ballActive {
		x, y := q.cubeXY(q.ballRow, q.ballIdx)
		fillRect(f, q.size, x+q.cell/4, y-q.cell/2, q.cell/2, q.cell/2, 0.45)
	}
	x, y := q.cubeXY(q.row, q.idx)
	fillRect(f, q.size, x+q.cell/4, y-q.cell/2, q.cell/2, q.cell/2+q.cell/4, 1.0)
	q.fs.push(f)
}

func (q *Qberta) allColored() bool {
	for _, row := range q.colored {
		for _, c := range row {
			if !c {
				return false
			}
		}
	}
	return true
}

// Step implements Env.
func (q *Qberta) Step(action []float64) ([]float64, float64, bool) {
	if q.done {
		return q.fs.obs(), 0, true
	}
	reward := 0.0
	nr, ni := q.row, q.idx
	switch int(action[0]) {
	case 0: // up-left
		nr, ni = q.row-1, q.idx-1
	case 1: // up-right
		nr, ni = q.row-1, q.idx
	case 2: // down-left
		nr, ni = q.row+1, q.idx
	case 3: // down-right
		nr, ni = q.row+1, q.idx+1
	}
	fellOff := nr < 0 || nr >= qRows || ni < 0 || ni > nr
	if !fellOff {
		q.row, q.idx = nr, ni
		if !q.colored[nr][ni] {
			q.colored[nr][ni] = true
			reward += 25
		}
	}

	// Ball spawns at the apex periodically and bounces down.
	if !q.ballActive {
		q.ballTimer--
		if q.ballTimer <= 0 {
			q.ballActive = true
			q.ballRow, q.ballIdx = 0, 0
		}
	} else {
		q.ballRow++
		if q.r.Float64() < 0.5 {
			q.ballIdx++
		}
		if q.ballRow >= qRows || q.ballIdx > q.ballRow {
			q.ballActive = false
			q.ballTimer = 5 + q.r.Intn(5)
		}
	}
	caught := q.ballActive && q.ballRow == q.row && q.ballIdx == q.idx
	cleared := q.allColored()
	if cleared {
		reward += 100
	}
	q.steps++
	q.done = fellOff || caught || cleared || q.steps >= q.MaxEpisodeSteps()
	q.render()
	return q.fs.obs(), reward, q.done
}
