package cache

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"stellaris/internal/replay"
)

func TestMemCacheBasics(t *testing.T) {
	c := NewMemCache()
	if err := c.Put("a", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	v, err := c.Get("a")
	if err != nil || string(v) != "hello" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if _, err := c.Get("missing"); !errors.As(err, &ErrNotFound{}) {
		t.Fatalf("missing key error %v", err)
	}
	if err := c.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("a"); err == nil {
		t.Fatal("deleted key still present")
	}
}

func TestMemCacheCopiesValues(t *testing.T) {
	c := NewMemCache()
	buf := []byte{1, 2, 3}
	if err := c.Put("k", buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 99
	v, _ := c.Get("k")
	if v[0] != 1 {
		t.Fatal("Put did not copy the value")
	}
	v[1] = 99
	v2, _ := c.Get("k")
	if v2[1] != 2 {
		t.Fatal("Get did not copy the value")
	}
}

func TestMemCacheKeysPrefix(t *testing.T) {
	c := NewMemCache()
	for _, k := range []string{"traj/2", "traj/1", "grad/1"} {
		if err := c.Put(k, nil); err != nil {
			t.Fatal(err)
		}
	}
	keys, err := c.Keys("traj/")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 || keys[0] != "traj/1" || keys[1] != "traj/2" {
		t.Fatalf("Keys = %v", keys)
	}
	n, _ := c.Len()
	if n != 3 {
		t.Fatalf("Len = %d", n)
	}
}

func TestMemCacheConcurrent(t *testing.T) {
	c := NewMemCache()
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("k%d", i)
			for j := 0; j < 100; j++ {
				if err := c.Put(key, []byte{byte(j)}); err != nil {
					t.Error(err)
					return
				}
				if _, err := c.Get(key); err != nil {
					t.Error(err)
					return
				}
				if err := c.Put("shared", []byte{byte(i)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if n, _ := c.Len(); n != 21 {
		t.Fatalf("Len = %d, want 21 (20 private keys and the shared one)", n)
	}
}

func TestCodecWeights(t *testing.T) {
	bothSlabPaths(t, func(t *testing.T) {
		msg := &WeightsMsg{Version: 7, Weights: []float64{1.5, -2.25, 0}}
		b, err := EncodeWeights(msg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeWeights(b)
		if err != nil {
			t.Fatal(err)
		}
		if got.Version != 7 || len(got.Weights) != 3 || got.Weights[1] != -2.25 {
			t.Fatalf("decoded %+v", got)
		}
	})
}

func TestCodecGrad(t *testing.T) {
	bothSlabPaths(t, func(t *testing.T) {
		g := &GradMsg{
			LearnerID: 3, BornVersion: 11, Grad: []float64{0.5},
			Samples: 256, MeanRatio: 0.97, MinRatio: 0.4, KL: 0.01, Entropy: 1.2,
		}
		b, err := EncodeGrad(g)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeGrad(b)
		if err != nil {
			t.Fatal(err)
		}
		if got.BornVersion != 11 || got.MeanRatio != 0.97 || got.Samples != 256 {
			t.Fatalf("decoded %+v", got)
		}
	})
}

func TestCodecTrajectory(t *testing.T) {
	bothSlabPaths(t, func(t *testing.T) {
		traj := &replay.Trajectory{
			ActorID:       2,
			PolicyVersion: 5,
			Steps: []replay.Step{
				{Obs: []float64{1, 2}, Action: []float64{0}, Reward: 1, Done: true,
					LogProb: -0.7, DistParams: []float64{0.1, 0.9}},
			},
			EpisodeReturns: []float64{42},
		}
		b, err := EncodeTrajectory(traj)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeTrajectory(b)
		if err != nil {
			t.Fatal(err)
		}
		if got.PolicyVersion != 5 || len(got.Steps) != 1 || got.Steps[0].LogProb != -0.7 ||
			got.EpisodeReturns[0] != 42 {
			t.Fatalf("decoded %+v", got)
		}
	})
}

// TestDecodeGarbage: anything that is not a well-formed SLB1 payload is
// an error from every decoder, never a panic — including the gob
// encoding of a WeightsMsg{7, [1 2]} frozen from a build that still
// spoke it.
func TestDecodeGarbage(t *testing.T) {
	bothSlabPaths(t, func(t *testing.T) {
		for name, in := range map[string][]byte{
			"text":             []byte("not SLB1"),
			"gob":              []byte("0\x7f\x03\x01\x01\nWeightsMsg\x01\xff\x80\x00\x01\x02\x01\aVersion\x01\x04\x00\x01\aWeights\x01\xff\x82\x00\x00\x00\x17\xff\x81\x02\x01\x01\t[]float64\x01\xff\x82\x00\x01\b\x00\x00\v\xff\x80\x01\x0e\x01\x02\xfe\xf0?@\x00"),
			"empty":            nil,
			"truncated header": []byte("SLB1\x01\x01\x00"),
		} {
			if w, err := DecodeWeights(in); err == nil {
				t.Errorf("%s: DecodeWeights accepted it: %+v", name, w)
			}
			if g, err := DecodeGrad(in); err == nil {
				t.Errorf("%s: DecodeGrad accepted it: %+v", name, g)
			}
			if tr, err := DecodeTrajectory(in); err == nil {
				t.Errorf("%s: DecodeTrajectory accepted it: %+v", name, tr)
			}
		}
	})
}
