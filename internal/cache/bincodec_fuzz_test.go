package cache

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"stellaris/internal/obs/lineage"
	"stellaris/internal/replay"
)

// FuzzBinCodecRoundTrip targets the payload codec (bincodec.go):
//
//  1. Adversarial decode — raw fuzz bytes, and the same bytes grafted
//     behind each binary header, the retired delta kind 4 included (so
//     inputs reach past the magic and kind gates), are fed to every
//     Decode* entry point. All must reject garbage with an error, never
//     panic and never allocate past the slab guards.
//  2. Structured round trip — a Trajectory derived from the input must
//     survive encode → decode bit-for-bit; a trajectory whose steps
//     differ in dimensions must be refused by the encoder; and a
//     WeightsMsg and a GradMsg built on the same floats round-trip too.
//
// Guarded by testing.Short so `make race` stays fast; `make
// fuzz-short` explores new inputs.
func FuzzBinCodecRoundTrip(f *testing.F) {
	if testing.Short() {
		f.Skip("binary codec fuzz corpus replay skipped in -short")
	}

	// Seeds: every payload kind in its binary encoding, plus truncated
	// and bit-flipped variants.
	f.Add([]byte{})
	f.Add([]byte("SLB1"))             // magic only, truncated header
	f.Add([]byte("SLB1\x05\x01\x00")) // unknown kind, short
	if b, err := EncodeWeights(&WeightsMsg{
		Version: 9, Weights: []float64{1, -2.5, math.Pi},
		Trace: lineage.Meta{ID: "w/9", Kind: lineage.KindWeights, Origin: "param"},
	}); err == nil {
		f.Add(b)
		corrupt := append([]byte(nil), b...)
		corrupt[len(corrupt)/2] ^= 0x20
		f.Add(corrupt)
	}
	if b, err := EncodeGrad(&GradMsg{
		LearnerID: 2, BornVersion: 4, Grad: []float64{0.5}, Samples: 8,
		MeanRatio: 1.0, MinRatio: 0.9, KL: 0.01, Entropy: 1.1,
	}); err == nil {
		f.Add(b)
	}
	if b, err := EncodeTrajectory(&replay.Trajectory{
		ActorID: 1, PolicyVersion: 3,
		Steps: []replay.Step{
			{Obs: []float64{1, 2}, Action: []float64{0}, Reward: 1, Done: true, LogProb: -0.5, DistParams: []float64{0.3}},
			{Obs: []float64{3, 4}, Action: []float64{1}, Reward: 0, LogProb: -0.1, DistParams: []float64{0.7}},
		},
		EpisodeReturns: []float64{4},
	}); err == nil {
		f.Add(b)
	}
	// The retired delta kind: a header of kind 4 over what was a dense
	// one-weight body (versions 5 and 4, length 1, dense flag, 1.0).
	f.Add(append(appendBinHeader(nil, 4, 0), "\x05\x00\x00\x00\x00\x00\x00\x00\x04\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\xf0\x3f"...))

	f.Fuzz(func(t *testing.T, data []byte) {
		bothSlabPaths(t, func(t *testing.T) { binCodecRoundTrip(t, data) })
	})
}

// binCodecRoundTrip is FuzzBinCodecRoundTrip's body, run on each slab
// path.
func binCodecRoundTrip(t *testing.T, data []byte) {
	// 1. No decoder may panic, on the raw input or on the input
	// spliced behind each structurally valid header.
	adversarial := [][]byte{data}
	for kind := byte(1); kind <= 4; kind++ {
		hdr := appendBinHeader(nil, kind, 0)
		adversarial = append(adversarial, append(hdr, data...))
	}
	for _, in := range adversarial {
		if w, err := DecodeWeights(in); err == nil && w == nil {
			t.Fatal("DecodeWeights: nil message without error")
		}
		if g, err := DecodeGrad(in); err == nil && g == nil {
			t.Fatal("DecodeGrad: nil message without error")
		}
		if tr, err := DecodeTrajectory(in); err == nil && tr == nil {
			t.Fatal("DecodeTrajectory: nil trajectory without error")
		}
	}

	// 2. A trajectory round-trips through the binary codec when its
	// steps share their dimensions (even input length); a ragged one
	// (odd length, two steps or more) is refused by the encoder.
	traj, ragged := trajFromBytes(data)
	tb, err := EncodeTrajectory(traj)
	if ragged {
		if err == nil {
			t.Fatal("EncodeTrajectory accepted a ragged trajectory")
		}
	} else {
		if err != nil {
			t.Fatalf("EncodeTrajectory: %v", err)
		}
		tr2, err := DecodeTrajectory(tb)
		if err != nil {
			t.Fatalf("DecodeTrajectory(EncodeTrajectory): %v", err)
		}
		if tr2.ActorID != traj.ActorID || tr2.PolicyVersion != traj.PolicyVersion ||
			len(tr2.Steps) != len(traj.Steps) || !float64sEqual(tr2.EpisodeReturns, traj.EpisodeReturns) {
			t.Fatalf("trajectory round trip mismatch: %+v != %+v", tr2, traj)
		}
		for i := range traj.Steps {
			a, b := &traj.Steps[i], &tr2.Steps[i]
			if !float64sEqual(a.Obs, b.Obs) || !float64sEqual(a.Action, b.Action) ||
				!sameFloat(a.Reward, b.Reward) || a.Done != b.Done ||
				!sameFloat(a.LogProb, b.LogProb) || !float64sEqual(a.DistParams, b.DistParams) {
				t.Fatalf("step %d mismatch: %+v != %+v", i, b, a)
			}
		}
	}

	// 3. So do a weight vector and a gradient carrying the same floats.
	base := floatsFromBytes(data, 128)
	w := &WeightsMsg{Version: len(data), Weights: base}
	wb, _ := EncodeWeights(w)
	if w2, err := DecodeWeights(wb); err != nil || w2.Version != w.Version || !float64sEqual(w2.Weights, w.Weights) {
		t.Fatalf("weights round trip: %+v != %+v (%v)", w2, w, err)
	}
	g := &GradMsg{
		LearnerID: len(data) % 5, BornVersion: len(data) % 13, Samples: len(base), Truncated: len(data) % 3,
		MeanRatio: float64(len(data)) / 16, MinRatio: 0.25, KL: 1.0 / 256, Entropy: 1.5, Grad: base,
	}
	gb, _ := EncodeGrad(g)
	g2, err := DecodeGrad(gb)
	if err != nil || !float64sEqual(g2.Grad, g.Grad) || !reflect.DeepEqual(g2, g) {
		t.Fatalf("grad round trip: %+v != %+v (%v)", g2, g, err)
	}
}

// trajFromBytes deterministically builds a small Trajectory from fuzz
// input. Even input lengths produce steps of equal dimensions; odd
// lengths produce steps that differ, which makes the trajectory ragged
// as soon as it has two of them.
func trajFromBytes(data []byte) (traj *replay.Trajectory, ragged bool) {
	traj = &replay.Trajectory{ActorID: len(data) % 7, PolicyVersion: len(data) % 11}
	vals := floatsFromBytes(data, 64)
	homogeneous := len(data)%2 == 0
	steps := len(vals)/4 + 1
	if steps > 8 {
		steps = 8
	}
	at := func(i int) float64 {
		if len(vals) == 0 {
			return 0.5
		}
		return vals[i%len(vals)]
	}
	for s := 0; s < steps; s++ {
		obsDim, dpDim := 3, 2
		if !homogeneous {
			obsDim, dpDim = 1+s%3, 1+s%2
		}
		st := replay.Step{
			Reward:  at(4 * s),
			Done:    s == steps-1,
			LogProb: at(4*s + 1),
		}
		for i := 0; i < obsDim; i++ {
			st.Obs = append(st.Obs, at(4*s+2+i))
		}
		st.Action = []float64{at(4*s + 3)}
		for i := 0; i < dpDim; i++ {
			st.DistParams = append(st.DistParams, at(4*s+5+i))
		}
		traj.Steps = append(traj.Steps, st)
	}
	traj.EpisodeReturns = []float64{at(0) + at(1)}
	return traj, !homogeneous && steps > 1
}

// corpusSeed returns the bytes of one committed FuzzBinCodecRoundTrip
// seed. The payload seeds are what the encoders wrote when the corpus
// was frozen.
func corpusSeed(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzBinCodecRoundTrip", name))
	if err != nil {
		t.Fatal(err)
	}
	lit, ok := strings.CutPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\n[]byte(")
	if !ok {
		t.Fatalf("seed %s is not a one-value []byte corpus file", name)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
	if err != nil {
		t.Fatalf("seed %s: %v", name, err)
	}
	return []byte(s)
}

// reencode returns the decode-then-encode round trip of one payload kind.
func reencode[T any](dec func([]byte) (T, error), enc func(T) ([]byte, error)) func([]byte) ([]byte, error) {
	return func(b []byte) ([]byte, error) {
		m, err := dec(b)
		if err != nil {
			return nil, err
		}
		return enc(m)
	}
}

// TestEncodersReproduceCorpusBytes pins the wire format to the frozen
// corpus: decoding a seed and encoding the result gives the seed back,
// byte for byte, for every payload kind.
func TestEncodersReproduceCorpusBytes(t *testing.T) {
	bothSlabPaths(t, func(t *testing.T) {
		for name, roundTrip := range map[string]func([]byte) ([]byte, error){
			"weights_traced":     reencode(DecodeWeights, EncodeWeights),
			"grad_learner2":      reencode(DecodeGrad, EncodeGrad),
			"trajectory_columns": reencode(DecodeTrajectory, EncodeTrajectory),
		} {
			seed := corpusSeed(t, name)
			got, err := roundTrip(seed)
			if err != nil {
				t.Errorf("%s: %v", name, err)
			} else if !bytes.Equal(got, seed) {
				t.Errorf("%s: re-encoded payload differs from the seed:\n got %q\nwant %q", name, got, seed)
			}
		}
	})
}

// TestRetiredDeltaKindIsRefused: payload kind 4, the weight delta that
// is no longer published, is refused by every decoder — the frozen delta
// seeds, and a header of that kind over an otherwise valid weights body.
func TestRetiredDeltaKindIsRefused(t *testing.T) {
	weights, err := EncodeWeights(&WeightsMsg{Version: 2, Weights: []float64{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	weights[4] = 4
	for name, in := range map[string][]byte{
		"delta_dense":     corpusSeed(t, "delta_dense"),
		"delta_sparse":    corpusSeed(t, "delta_sparse"),
		"weights as kind": weights,
	} {
		if m, err := DecodeWeights(in); err == nil || !strings.Contains(err.Error(), "kind 4") {
			t.Errorf("%s: DecodeWeights = %+v, %v; want the kind error", name, m, err)
		}
		if m, err := DecodeGrad(in); err == nil || !strings.Contains(err.Error(), "kind 4") {
			t.Errorf("%s: DecodeGrad = %+v, %v; want the kind error", name, m, err)
		}
		if m, err := DecodeTrajectory(in); err == nil || !strings.Contains(err.Error(), "kind 4") {
			t.Errorf("%s: DecodeTrajectory = %+v, %v; want the kind error", name, m, err)
		}
	}
}

// TestTrajectoryHasOneLayout: the encoder refuses steps of differing
// dimensions, and the decoder refuses the per-step layout byte 0 that
// such trajectories used to travel under — on the frozen seed of one,
// and on a valid payload with only that byte changed.
func TestTrajectoryHasOneLayout(t *testing.T) {
	bothSlabPaths(t, func(t *testing.T) {
		if b, err := EncodeTrajectory(&replay.Trajectory{Steps: []replay.Step{
			{Obs: []float64{1}, Action: []float64{0}},
			{Obs: []float64{1, 2}, Action: []float64{0}},
		}}); err == nil {
			t.Errorf("ragged trajectory encoded to %d bytes", len(b))
		}
		columns := corpusSeed(t, "trajectory_columns")
		const layoutAt = binHeader + 8 + 8 + 4
		if columns[layoutAt] != 1 {
			t.Fatalf("layout byte of the column seed is %d", columns[layoutAt])
		}
		columns[layoutAt] = 0
		for name, in := range map[string][]byte{"trajectory_ragged": corpusSeed(t, "trajectory_ragged"), "columns relabelled": columns} {
			if tr, err := DecodeTrajectory(in); err == nil || !strings.Contains(err.Error(), "unknown trajectory layout 0") {
				t.Errorf("%s: DecodeTrajectory = %+v, %v; want the layout error", name, tr, err)
			}
		}
	})
}
