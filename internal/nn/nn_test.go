package nn

import (
	"math"
	"testing"

	"stellaris/internal/rng"
	"stellaris/internal/tensor"
)

// lossOf computes a fixed scalar loss (weighted sum of outputs) for
// gradient checking: L = Σ_ij w_ij · out_ij.
func lossOf(n *Network, in *tensor.Mat, w []float64) float64 {
	out := n.Forward(in)
	return tensor.Dot(out.Data, w)
}

// analyticGrads runs backward for the weighted-sum loss and returns the
// flat parameter gradient and the input gradient.
func analyticGrads(n *Network, in *tensor.Mat, w []float64) (pg []float64, ig *tensor.Mat) {
	n.ZeroGrad()
	out := n.Forward(in)
	dOut := tensor.NewMat(out.Rows, out.Cols)
	copy(dOut.Data, w)
	ig = n.Backward(dOut)
	return n.FlattenGrads(), ig
}

// checkGradients compares analytic and central-difference gradients for
// both parameters and inputs.
func checkGradients(t *testing.T, n *Network, in *tensor.Mat, seed uint64) {
	t.Helper()
	r := rng.New(seed)
	w := make([]float64, in.Rows*n.OutDim())
	for i := range w {
		w[i] = r.NormFloat64()
	}
	pg, ig := analyticGrads(n, in, w)

	const eps = 1e-6
	// Parameter gradients: probe a sample of coordinates.
	flat := n.FlattenParams()
	stride := len(flat)/60 + 1
	for i := 0; i < len(flat); i += stride {
		orig := flat[i]
		flat[i] = orig + eps
		if err := n.SetParams(flat); err != nil {
			t.Fatal(err)
		}
		up := lossOf(n, in, w)
		flat[i] = orig - eps
		if err := n.SetParams(flat); err != nil {
			t.Fatal(err)
		}
		down := lossOf(n, in, w)
		flat[i] = orig
		if err := n.SetParams(flat); err != nil {
			t.Fatal(err)
		}
		numeric := (up - down) / (2 * eps)
		if diff := math.Abs(numeric - pg[i]); diff > 1e-4*(1+math.Abs(numeric)) {
			t.Fatalf("param grad %d: analytic %v vs numeric %v", i, pg[i], numeric)
		}
	}
	// Input gradients.
	istride := len(in.Data)/40 + 1
	for i := 0; i < len(in.Data); i += istride {
		orig := in.Data[i]
		in.Data[i] = orig + eps
		up := lossOf(n, in, w)
		in.Data[i] = orig - eps
		down := lossOf(n, in, w)
		in.Data[i] = orig
		numeric := (up - down) / (2 * eps)
		if diff := math.Abs(numeric - ig.Data[i]); diff > 1e-4*(1+math.Abs(numeric)) {
			t.Fatalf("input grad %d: analytic %v vs numeric %v", i, ig.Data[i], numeric)
		}
	}
}

func randIn(r *rng.RNG, rows, cols int) *tensor.Mat {
	in := tensor.NewMat(rows, cols)
	for i := range in.Data {
		in.Data[i] = r.NormFloat64()
	}
	return in
}

func TestDenseGradients(t *testing.T) {
	r := rng.New(1)
	n := NewNetwork(5, NewDense(5, 4, r))
	checkGradients(t, n, randIn(r, 3, 5), 11)
}

func TestTanhMLPGradients(t *testing.T) {
	r := rng.New(2)
	n := NewNetwork(6,
		NewDense(6, 8, r), NewTanh(),
		NewDense(8, 8, r), NewTanh(),
		NewDense(8, 3, r),
	)
	checkGradients(t, n, randIn(r, 4, 6), 13)
}

func TestReLUMLPGradients(t *testing.T) {
	r := rng.New(3)
	n := NewNetwork(6,
		NewDense(6, 10, r), NewReLU(),
		NewDense(10, 2, r),
	)
	// Shift inputs away from the ReLU kink to keep finite differences
	// valid.
	in := randIn(r, 4, 6)
	checkGradients(t, n, in, 17)
}

func TestConvNetGradients(t *testing.T) {
	r := rng.New(4)
	c1 := tensor.ConvShape{InC: 2, InH: 8, InW: 8, OutC: 3, KH: 3, KW: 3, Stride: 2}
	if err := c1.Validate(); err != nil {
		t.Fatal(err)
	}
	n := NewNetwork(c1.InSize(),
		NewConv2D(c1, r),
		NewTanh(), // smooth activation keeps the numeric check tight
		NewDense(c1.OutSize(), 4, r),
	)
	checkGradients(t, n, randIn(r, 2, c1.InSize()), 19)
}

func TestParamsRoundTrip(t *testing.T) {
	r := rng.New(5)
	n := MLPTrunk(7, 16, r)
	flat := n.FlattenParams()
	if len(flat) != n.NumParams() {
		t.Fatalf("FlattenParams length %d != NumParams %d", len(flat), n.NumParams())
	}
	m := MLPTrunk(7, 16, rng.New(99))
	if err := m.SetParams(flat); err != nil {
		t.Fatal(err)
	}
	got := m.FlattenParams()
	for i := range flat {
		if got[i] != flat[i] {
			t.Fatalf("round trip mismatch at %d", i)
		}
	}
	// Forward agreement after weight transfer.
	in := randIn(r, 2, 7)
	a := n.Forward(in)
	b := m.Forward(in)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("identical weights produced different outputs")
		}
	}
}

func TestSetParamsWrongLength(t *testing.T) {
	n := MLPTrunk(4, 8, rng.New(1))
	if err := n.SetParams(make([]float64, 3)); err == nil {
		t.Fatal("SetParams accepted wrong length")
	}
}

func TestZeroGradAndScale(t *testing.T) {
	r := rng.New(6)
	n := NewNetwork(3, NewDense(3, 2, r))
	in := randIn(r, 2, 3)
	w := []float64{1, 1, 1, 1}
	analyticGrads(n, in, w)
	g1 := n.FlattenGrads()
	n.ScaleGrads(2)
	g2 := n.FlattenGrads()
	for i := range g1 {
		if !almost(g2[i], 2*g1[i]) {
			t.Fatalf("ScaleGrads mismatch at %d", i)
		}
	}
	n.ZeroGrad()
	for _, g := range n.FlattenGrads() {
		if g != 0 {
			t.Fatal("ZeroGrad left residue")
		}
	}
}

func almost(a, b float64) bool { return math.Abs(a-b) <= 1e-12*(1+math.Abs(a)) }

func TestBackwardAccumulates(t *testing.T) {
	r := rng.New(7)
	n := NewNetwork(3, NewDense(3, 2, r))
	in := randIn(r, 2, 3)
	w := []float64{1, -1, 0.5, 2}
	analyticGrads(n, in, w)
	g1 := n.FlattenGrads()
	// Second backward without ZeroGrad doubles the gradient.
	out := n.Forward(in)
	dOut := tensor.NewMat(out.Rows, out.Cols)
	copy(dOut.Data, w)
	n.Backward(dOut)
	g2 := n.FlattenGrads()
	for i := range g1 {
		if !almost(g2[i], 2*g1[i]) {
			t.Fatalf("gradient accumulation broken at %d: %v vs %v", i, g2[i], 2*g1[i])
		}
	}
}

func TestMLPTrunkShape(t *testing.T) {
	n := MLPTrunk(11, 256, rng.New(1))
	if n.InDim() != 11 || n.OutDim() != 256 {
		t.Fatalf("MLPTrunk dims %d->%d", n.InDim(), n.OutDim())
	}
	// Table II: two hidden layers of 256.
	if len(n.Layers) != 4 {
		t.Fatalf("MLPTrunk has %d layers, want 4", len(n.Layers))
	}
}

func TestCNNTrunkShapeTableII(t *testing.T) {
	n := CNNTrunk(3, 44, 44, rng.New(1))
	if n.OutDim() != 256 {
		t.Fatalf("CNNTrunk out %d, want 256", n.OutDim())
	}
	conv1, ok := n.Layers[0].(*Conv2D)
	if !ok {
		t.Fatal("layer 0 not Conv2D")
	}
	if conv1.Shape.OutC != 16 || conv1.Shape.KH != 8 || conv1.Shape.Stride != 4 {
		t.Fatalf("conv1 is %d@%dx%ds%d, want 16@8x8s4",
			conv1.Shape.OutC, conv1.Shape.KH, conv1.Shape.KW, conv1.Shape.Stride)
	}
	conv2, ok := n.Layers[2].(*Conv2D)
	if !ok {
		t.Fatal("layer 2 not Conv2D")
	}
	if conv2.Shape.OutC != 32 || conv2.Shape.KH != 4 || conv2.Shape.Stride != 2 {
		t.Fatalf("conv2 is %d@%dx%ds%d, want 32@4x4s2",
			conv2.Shape.OutC, conv2.Shape.KH, conv2.Shape.KW, conv2.Shape.Stride)
	}
}

func TestWithHeadAppends(t *testing.T) {
	trunk := MLPTrunk(5, 8, rng.New(1))
	head := WithHead(trunk, 3, 0.01, rng.New(2))
	if head.OutDim() != 3 {
		t.Fatalf("head out %d", head.OutDim())
	}
	if head.NumParams() != trunk.NumParams()+8*3+3 {
		t.Fatalf("head params %d", head.NumParams())
	}
}

func TestDenseScaledGain(t *testing.T) {
	a := NewDense(4, 4, rng.New(3))
	b := NewDenseScaled(4, 4, 0.01, rng.New(3))
	for i := range a.W.Data {
		if !almost(b.W.Data[i], 0.01*a.W.Data[i]) {
			t.Fatal("gain scaling wrong")
		}
	}
}

func TestForwardShapePanics(t *testing.T) {
	n := NewNetwork(3, NewDense(3, 2, rng.New(1)))
	defer func() {
		if recover() == nil {
			t.Fatal("wrong input width accepted")
		}
	}()
	n.Forward(tensor.NewMat(1, 4))
}

// TestBackwardParamsBitEqualToBackward holds the learner path to the
// full backward pass: skipping layer 0's dL/dIn must leave every
// Param.Grad with the same bits, over accumulating passes, for the MLP
// and for the CNN (whose first layer is the costly one to skip).
func TestBackwardParamsBitEqualToBackward(t *testing.T) {
	nets := map[string]func() *Network{
		"mlp": func() *Network { return WithHead(MLPTrunk(11, 24, rng.New(5)), 3, 0.01, rng.New(6)) },
		"cnn": func() *Network { return WithHead(CNNTrunk(3, 20, 20, rng.New(7)), 4, 0.01, rng.New(8)) },
	}
	for name, build := range nets {
		full, learner := build(), build()
		r := rng.New(9)
		for pass := 0; pass < 3; pass++ {
			in := randIn(r, 5+pass, full.InDim())
			dOut := randIn(r, in.Rows, full.OutDim())
			full.Forward(in)
			if dIn := full.Backward(dOut); dIn.Rows != in.Rows || dIn.Cols != in.Cols {
				t.Fatalf("%s: Backward returned %dx%d for a %dx%d input", name, dIn.Rows, dIn.Cols, in.Rows, in.Cols)
			}
			learner.Forward(in)
			learner.BackwardParams(dOut)
		}
		want, got := full.FlattenGrads(), learner.FlattenGrads()
		nonzero := 0
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: gradient %d = %v after BackwardParams, %v after Backward", name, i, got[i], want[i])
			}
			if want[i] != 0 {
				nonzero++
			}
		}
		if nonzero < len(want)/2 {
			t.Fatalf("%s: only %d of %d gradients are nonzero; the comparison is vacuous", name, nonzero, len(want))
		}
	}
}

// TestSteadyStatePassesDoNotAllocate pins the buffer-reuse contract of
// the two layers that own scratch space: once a batch shape has been
// seen, Forward + Backward allocate nothing, matrix headers included.
func TestSteadyStatePassesDoNotAllocate(t *testing.T) {
	r := rng.New(10)
	shape := tensor.ConvShape{InC: 3, InH: 20, InW: 20, OutC: 16, KH: 8, KW: 8, Stride: 4}
	for _, tc := range []struct {
		l     Layer
		inDim int
	}{{NewDense(11, 64, r), 11}, {NewConv2D(shape, r), shape.InSize()}} {
		l, inDim := tc.l, tc.inDim
		in := randIn(r, 8, inDim)
		dOut := randIn(r, 8, l.OutDim(inDim))
		pass := func() {
			l.Forward(in)
			l.Backward(dOut)
		}
		pass()
		if n := testing.AllocsPerRun(20, pass); n != 0 {
			t.Errorf("%s: %v allocations per steady-state Forward+Backward, want 0", l.Name(), n)
		}
	}
}
