package stellaris_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"stellaris"
	"stellaris/internal/tensor"
)

// outputHash is sha256 over a run's final weights, its episode count
// and its mean return, every float by its bits.
func outputHash(weights []float64, episodes int, meanReturn float64) string {
	h := sha256.New()
	var b [8]byte
	for _, w := range weights {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(w))
		h.Write(b[:])
	}
	binary.LittleEndian.PutUint64(b[:], uint64(episodes))
	h.Write(b[:])
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(meanReturn))
	h.Write(b[:])
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenOutputs pins the bits of both pipelines end to end: a small
// seeded lockstep live run over the real cache wire, and a small
// discrete-event run. The hashes are host class 1's (DESIGN.md §8); on
// any other class the outputs legitimately differ and the test skips.
func TestGoldenOutputs(t *testing.T) {
	if !tensor.HostClassOne() {
		t.Skip("the pinned hashes are host class 1's; this host's math.Tanh is another class")
	}
	t.Run("lockstep", func(t *testing.T) {
		rep, err := stellaris.LiveTrain(stellaris.LiveOptions{
			Env: "cartpole", Seed: 1,
			Actors: 2, Learners: 2,
			Updates: 6, ActorSteps: 32, BatchSize: 64,
			Hidden: 32, LearningRate: 0.0003,
			Lockstep: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		const want = "284dff8d386af463f660633aa7615d24d647a1fab832ad6e436ef65610b2134f"
		if got := outputHash(rep.FinalWeights, rep.Episodes, rep.MeanReturn); got != want {
			t.Fatalf("lockstep output hash %s, want %s (episodes %d, mean return %v)", got, want, rep.Episodes, rep.MeanReturn)
		}
	})
	t.Run("des", func(t *testing.T) {
		res, err := stellaris.Train(stellaris.Config{
			Env: "cartpole", Algo: "ppo", Seed: 1,
			Rounds: 2, UpdatesPerRound: 2,
			NumActors: 4, ActorSteps: 32, BatchSize: 128, Hidden: 32,
		})
		if err != nil {
			t.Fatal(err)
		}
		const want = "fbba97394edb0e0b68b4273bb6a05187935e6486115ff66d0f365db9bfe6afd1"
		if got := outputHash(res.FinalWeights, res.Episodes, res.FinalReward); got != want {
			t.Fatalf("DES output hash %s, want %s (episodes %d, final reward %v)", got, want, res.Episodes, res.FinalReward)
		}
	})
}
