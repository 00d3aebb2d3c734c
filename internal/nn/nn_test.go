package nn

import (
	"math"
	"strings"
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
	return flatGrads(n), ig
}

// flatParams copies every parameter value, in Params() order.
func flatParams(n *Network) []float64 {
	var out []float64
	for _, p := range n.Params() {
		out = append(out, p.Data...)
	}
	return out
}

// flatGrads copies every accumulated gradient, in Params() order.
func flatGrads(n *Network) []float64 {
	var out []float64
	for _, p := range n.Params() {
		out = append(out, p.Grad...)
	}
	return out
}

// setParams loads a vector laid out as flatParams's.
func setParams(n *Network, flat []float64) {
	for _, p := range n.Params() {
		flat = flat[copy(p.Data, flat):]
	}
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
	flat := flatParams(n)
	stride := len(flat)/60 + 1
	for i := 0; i < len(flat); i += stride {
		orig := flat[i]
		flat[i] = orig + eps
		setParams(n, flat)
		up := lossOf(n, in, w)
		flat[i] = orig - eps
		setParams(n, flat)
		down := lossOf(n, in, w)
		flat[i] = orig
		setParams(n, flat)
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
	s := NewSlab(DenseSize(5, 4))
	n := NewNetwork(s, 5, NewDense(s, 5, 4, r))
	checkGradients(t, n, randIn(r, 3, 5), 11)
}

func TestTanhMLPGradients(t *testing.T) {
	r := rng.New(2)
	s := NewSlab(MLPSize(6, 8, 3))
	n := NewNetwork(s, 6,
		NewDense(s, 6, 8, r), NewTanh(),
		NewDense(s, 8, 8, r), NewTanh(),
		NewDense(s, 8, 3, r),
	)
	checkGradients(t, n, randIn(r, 4, 6), 13)
}

func TestReLUMLPGradients(t *testing.T) {
	r := rng.New(3)
	s := NewSlab(DenseSize(6, 10) + DenseSize(10, 2))
	n := NewNetwork(s, 6,
		NewDense(s, 6, 10, r), NewReLU(),
		NewDense(s, 10, 2, r),
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
	s := NewSlab(ConvSize(c1) + DenseSize(c1.OutSize(), 4))
	n := NewNetwork(s, c1.InSize(),
		NewConv2D(s, c1, r),
		NewTanh(), // smooth activation keeps the numeric check tight
		NewDense(s, c1.OutSize(), 4, r),
	)
	checkGradients(t, n, randIn(r, 2, c1.InSize()), 19)
}

// TestParamsRoundTrip builds a trunk on a Slab and checks that the slab
// is the parameters: each Param is a window of it in Params() order, a
// second trunk loaded by copying the slab computes the same outputs,
// and ZeroGrad hands out gradient windows at the same offsets.
func TestParamsRoundTrip(t *testing.T) {
	r := rng.New(5)
	s := NewSlab(MLPSize(7, 16, 3))
	n := WithHead(MLPTrunk(s, 7, 16, r), 3, 0.01, r)
	if n.NumParams() != len(s.W) {
		t.Fatalf("NumParams %d != slab length %d", n.NumParams(), len(s.W))
	}
	for i, v := range flatParams(n) {
		if math.Float64bits(v) != math.Float64bits(s.W[i]) {
			t.Fatalf("slab[%d] = %v, Params() order has %v", i, s.W[i], v)
		}
	}
	s2 := NewSlab(len(s.W))
	m := WithHead(MLPTrunk(s2, 7, 16, rng.New(99)), 3, 0.01, rng.New(98))
	copy(s2.W, s.W)
	in := randIn(r, 2, 7)
	a := n.Forward(in)
	b := m.Forward(in)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("identical weights produced different outputs")
		}
	}
	s.ZeroGrad()
	off := 0
	for _, p := range n.Params() {
		if len(p.Grad) != len(p.Data) || &p.Grad[0] != &s.G[off] {
			t.Fatalf("%s: gradient is not the slab's window at %d", p.Name, off)
		}
		off += len(p.Data)
	}
}

// TestZeroGradAndScale holds a slab's gradient vector to its Params:
// scaling the vector scales every Param.Grad, and ZeroGrad clears it.
func TestZeroGradAndScale(t *testing.T) {
	r := rng.New(6)
	s := NewSlab(DenseSize(3, 2))
	n := NewNetwork(s, 3, NewDense(s, 3, 2, r))
	s.ZeroGrad()
	in := randIn(r, 2, 3)
	w := []float64{1, 1, 1, 1}
	_, _ = analyticGrads(n, in, w)
	g1 := flatGrads(n)
	tensor.Scale(2, s.G)
	g2 := flatGrads(n)
	for i := range g1 {
		if !almost(g2[i], 2*g1[i]) {
			t.Fatalf("scaling the slab missed gradient %d", i)
		}
	}
	s.ZeroGrad()
	for _, g := range flatGrads(n) {
		if g != 0 {
			t.Fatal("ZeroGrad left residue")
		}
	}
}

// TestBackwardBeforeZeroGrad holds a network to its Slab's gradients
// however it is first driven: a Backward with no ZeroGrad before it
// allocates them and accumulates what a cleared pass does, and a
// network's ZeroGrad on a fresh Slab leaves every Param a gradient.
func TestBackwardBeforeZeroGrad(t *testing.T) {
	build := func() (*Slab, *Network) {
		s := NewSlab(MLPSize(4, 8, 2))
		return s, WithHead(MLPTrunk(s, 4, 8, rng.New(1)), 2, 1, rng.New(2))
	}
	r := rng.New(3)
	in, dOut := randIn(r, 3, 4), randIn(r, 3, 2)
	s1, first := build()
	first.Forward(in)
	first.Backward(dOut)
	s2, cleared := build()
	s2.ZeroGrad()
	cleared.Forward(in)
	cleared.Backward(dOut)
	for i := range s1.G {
		if math.Float64bits(s1.G[i]) != math.Float64bits(s2.G[i]) {
			t.Fatalf("gradient %d = %v before any ZeroGrad, %v after one", i, s1.G[i], s2.G[i])
		}
	}
	_, fresh := build()
	fresh.ZeroGrad()
	for _, p := range fresh.Params() {
		if len(p.Grad) != len(p.Data) {
			t.Fatalf("%s: %d gradients for %d weights after a network's ZeroGrad", p.Name, len(p.Grad), len(p.Data))
		}
	}
}

// TestSlabOverflowPanics refuses a layer that does not fit its Slab.
func TestSlabOverflowPanics(t *testing.T) {
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "slab has 5 left") {
			t.Fatalf("overflowing layer: recovered %q", msg)
		}
	}()
	NewDense(NewSlab(5), 3, 2, rng.New(1))
}

func almost(a, b float64) bool { return math.Abs(a-b) <= 1e-12*(1+math.Abs(a)) }

func TestBackwardAccumulates(t *testing.T) {
	r := rng.New(7)
	s := NewSlab(DenseSize(3, 2))
	n := NewNetwork(s, 3, NewDense(s, 3, 2, r))
	in := randIn(r, 2, 3)
	w := []float64{1, -1, 0.5, 2}
	analyticGrads(n, in, w)
	g1 := flatGrads(n)
	// Second backward without ZeroGrad doubles the gradient.
	out := n.Forward(in)
	dOut := tensor.NewMat(out.Rows, out.Cols)
	copy(dOut.Data, w)
	n.Backward(dOut)
	g2 := flatGrads(n)
	for i := range g1 {
		if !almost(g2[i], 2*g1[i]) {
			t.Fatalf("gradient accumulation broken at %d: %v vs %v", i, g2[i], 2*g1[i])
		}
	}
}

func TestMLPTrunkShape(t *testing.T) {
	n := MLPTrunk(NewSlab(MLPSize(11, 256, 0)), 11, 256, rng.New(1))
	if n.InDim() != 11 || n.OutDim() != 256 {
		t.Fatalf("MLPTrunk dims %d->%d", n.InDim(), n.OutDim())
	}
	// Table II: two hidden layers of 256.
	if len(n.Layers) != 4 {
		t.Fatalf("MLPTrunk has %d layers, want 4", len(n.Layers))
	}
}

func TestCNNTrunkShapeTableII(t *testing.T) {
	s := NewSlab(CNNSize(3, 44, 44, 6))
	n := CNNTrunk(s, 3, 44, 44, rng.New(1))
	if n.OutDim() != 256 {
		t.Fatalf("CNNTrunk out %d, want 256", n.OutDim())
	}
	if got := WithHead(n, 6, 0.01, rng.New(2)).NumParams(); got != len(s.W) {
		t.Fatalf("CNNTrunk with a 6-wide head has %d parameters, CNNSize says %d", got, len(s.W))
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
	trunk := MLPTrunk(NewSlab(MLPSize(5, 8, 3)), 5, 8, rng.New(1))
	head := WithHead(trunk, 3, 0.01, rng.New(2))
	if head.OutDim() != 3 {
		t.Fatalf("head out %d", head.OutDim())
	}
	if head.NumParams() != trunk.NumParams()+8*3+3 {
		t.Fatalf("head params %d", head.NumParams())
	}
}

func TestDenseScaledGain(t *testing.T) {
	a := NewDense(NewSlab(DenseSize(4, 4)), 4, 4, rng.New(3))
	b := NewDenseScaled(NewSlab(DenseSize(4, 4)), 4, 4, 0.01, rng.New(3))
	for i := range a.W.Data {
		if !almost(b.W.Data[i], 0.01*a.W.Data[i]) {
			t.Fatal("gain scaling wrong")
		}
	}
}

func TestForwardShapePanics(t *testing.T) {
	s := NewSlab(DenseSize(3, 2))
	n := NewNetwork(s, 3, NewDense(s, 3, 2, rng.New(1)))
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
		"mlp": func() *Network {
			return WithHead(MLPTrunk(NewSlab(MLPSize(11, 24, 3)), 11, 24, rng.New(5)), 3, 0.01, rng.New(6))
		},
		"cnn": func() *Network {
			return WithHead(CNNTrunk(NewSlab(CNNSize(3, 20, 20, 4)), 3, 20, 20, rng.New(7)), 4, 0.01, rng.New(8))
		},
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
		want, got := flatGrads(full), flatGrads(learner)
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
	s := NewSlab(DenseSize(11, 64) + ConvSize(shape))
	layers := []struct {
		l     Layer
		inDim int
	}{{NewDense(s, 11, 64, r), 11}, {NewConv2D(s, shape, r), shape.InSize()}}
	s.ZeroGrad()
	for _, tc := range layers {
		l, inDim := tc.l, tc.inDim
		in := randIn(r, 8, inDim)
		dOut := randIn(r, 8, l.OutDim(inDim))
		pass := func() {
			l.Forward(in)
			l.Backward(dOut)
		}
		pass()
		if n := testing.AllocsPerRun(20, pass); n != 0 {
			t.Errorf("%T: %v allocations per steady-state Forward+Backward, want 0", l, n)
		}
	}
}

// packNets are the two trunks a rollout packs, with heads: the MLP at
// hopper's widths and the frame-20 CNN, whose first convolution's
// product has 16 rows a sample.
func packNets() map[string]func() *Network {
	return map[string]func() *Network{
		"mlp": func() *Network {
			return WithHead(MLPTrunk(NewSlab(MLPSize(11, 64, 6)), 11, 64, rng.New(5)), 6, 0.01, rng.New(6))
		},
		"cnn": func() *Network {
			return WithHead(CNNTrunk(NewSlab(CNNSize(3, 20, 20, 6)), 3, 20, 20, rng.New(7)), 6, 0.01, rng.New(8))
		},
	}
}

// TestPackedForwardBitEqualToUnpacked holds a layer's three ways to its
// product to the same bits. A network packed for a rollout (Pack) and
// the same network unpacked give the same batch-1 and batch-32
// forwards; the unpacked network's batch-32 forward, where
// tensor.PackPays for its rows, packs for that product alone, and each
// of its rows equals a batch-1 forward, which packs for nothing (one
// row, or a convolution's 16 positions): a Dense's and a Conv2D's bias
// added in the tile's registers has the bits of MatMulABT and then
// AddBiasRows, for weights and biases drawn at random (a fresh layer's
// biases are zero). Pack packs a layer where
// PackPays for all the rows its products will see, one sample's rows
// at a time, so where the CPU has the tile kernels the rollout-sized
// pack reaches the 64-wide hidden layers, and a pack for one row
// reaches none.
func TestPackedForwardBitEqualToUnpacked(t *testing.T) {
	for name, build := range packNets() {
		packed, plain := build(), build()
		r := rng.New(11)
		weights := randIn(r, 1, packed.NumParams()).Data
		setParams(packed, weights)
		setParams(plain, weights)
		for _, rows := range []int{1, 64} {
			packed.Pack(rows)
			hidden := 0
			for _, l := range packed.Layers {
				var got, want bool
				switch l := l.(type) {
				case *Dense:
					got, want = l.packed, tensor.PackPays(rows, 1, l.Out)
					if got && l.Out == 64 {
						hidden++
					}
				case *Conv2D:
					positions := l.Shape.OutH * l.Shape.OutW
					got, want = l.packed, tensor.PackPays(rows*positions, positions, l.Shape.OutC)
				}
				if got != want {
					t.Fatalf("%s: %T packed = %v after Pack(%d), want %v", name, l, got, rows, want)
				}
			}
			if wantHidden := tensor.PackPays(64, 1, 64) && rows == 64 && name == "mlp"; wantHidden != (hidden == 2) {
				t.Fatalf("%s: %d hidden layers packed after Pack(%d)", name, hidden, rows)
			}
			for _, batch := range []int{1, 32} {
				in := randIn(r, batch, packed.InDim())
				got := packed.Forward(in)
				want := append([]float64(nil), plain.Forward(in).Data...)
				for i, w := range want {
					if math.Float64bits(got.Data[i]) != math.Float64bits(w) {
						t.Fatalf("%s: packed for %d rows, batch %d: output %d = %v, unpacked %v", name, rows, batch, i, got.Data[i], w)
					}
				}
				if batch == 1 {
					continue
				}
				for _, l := range plain.Layers {
					var got, want bool
					switch l := l.(type) {
					case *Dense:
						got, want = l.wt != nil, tensor.PackPays(batch, batch, l.Out)
					case *Conv2D:
						rows := batch * l.Shape.OutH * l.Shape.OutW
						got, want = l.wt != nil, tensor.PackPays(rows, rows, l.Shape.OutC)
					default:
						continue
					}
					if got != want {
						t.Fatalf("%s: %T packed for a batch of %d: %v", name, l, batch, got)
					}
				}
				out := len(want) / batch
				for i := 0; i < batch; i++ {
					one := plain.Forward(tensor.MatFrom(1, in.Cols, in.Row(i)))
					for j, v := range one.Data {
						if w := want[i*out+j]; math.Float64bits(v) != math.Float64bits(w) {
							t.Fatalf("%s: batch %d, row %d: output %d = %v, batch-1 forward %v", name, batch, i, j, w, v)
						}
					}
				}
			}
			packed.Unpack()
		}
	}
}

// TestPackedForwardsDoNotAllocate pins the cost of the packs: once a
// network has been packed, packing it again, forwarding one sample,
// unpacking, and forwarding a batch that packs for its own product
// allocate nothing.
func TestPackedForwardsDoNotAllocate(t *testing.T) {
	for name, build := range packNets() {
		n := build()
		r := rng.New(12)
		in, batch := randIn(r, 1, n.InDim()), randIn(r, 32, n.InDim())
		step := func() {
			n.Pack(64)
			n.Forward(in)
			n.Unpack()
			n.Forward(batch)
		}
		step()
		if a := testing.AllocsPerRun(20, step); a != 0 {
			t.Errorf("%s: %v allocations per Pack, batch-1 Forward, Unpack and batch-32 Forward after the first, want 0", name, a)
		}
	}
}
