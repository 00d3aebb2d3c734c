package ckpt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stellaris/internal/istrunc"
	"stellaris/internal/optim"
	"stellaris/internal/rng"
	"stellaris/internal/stale"
)

func sampleCheckpoint(version int64) *Checkpoint {
	r := rng.New(99)
	r.NormFloat64()
	return &Checkpoint{
		Mode: ModeLockstep,
		Fp: Fingerprint{
			Env: "cartpole", Algo: "ppo",
			Hidden: 16, FrameSize: 4, Actors: 2, Learners: 2,
			ActorSteps: 32, BatchSize: 64, UpdatesPerRound: 8, SmoothV: 3,
			Seed: 5, DecayD: 0.96, Rho: 1.0, LearningRate: 0.0003,
		},
		Version: version,
		Round:   version / 8,
		Weights: []float64{0.1, -0.2, 0.3, math.Pi},
		Opt:     optim.State{Name: "adam", Step: 17, Vecs: [][]float64{{1, 2}, {3, 4}}},
		Agg: stale.StellarisState{DeltaMax: 3, Queue: []*stale.Entry{
			{LearnerID: 1, BornVersion: 3, Samples: 64, MeanRatio: 0.97, KL: 0.01, Grad: []float64{5, 6, 7}},
		}},
		StaleSum: 12.5,
		StaleN:   9,
		Tracker:  istrunc.TrackerState{GroupMin: math.Inf(1)},
		Episodes: 11,
		Returns:  []float64{20, 35.5},
		Actors:   []WorkerState{{RNG: r.State(), Seq: 4}},
		Learners: []WorkerState{{RNG: rng.New(7).State(), Seq: 2}, {RNG: r.State(), Seq: 3}},
	}
}

func equalCheckpoints(t *testing.T, a, b *Checkpoint) {
	t.Helper()
	if a.Mode != b.Mode || a.Fp != b.Fp || a.Version != b.Version || a.Round != b.Round {
		t.Fatalf("header mismatch: %+v vs %+v", a, b)
	}
	eqVec := func(name string, x, y []float64) {
		if len(x) != len(y) {
			t.Fatalf("%s length %d vs %d", name, len(x), len(y))
		}
		for i := range x {
			if x[i] != y[i] && !(math.IsNaN(x[i]) && math.IsNaN(y[i])) {
				t.Fatalf("%s[%d]: %v vs %v", name, i, x[i], y[i])
			}
		}
	}
	eqVec("weights", a.Weights, b.Weights)
	if a.Opt.Name != b.Opt.Name || a.Opt.Step != b.Opt.Step || len(a.Opt.Vecs) != len(b.Opt.Vecs) {
		t.Fatalf("opt state mismatch: %+v vs %+v", a.Opt, b.Opt)
	}
	for i := range a.Opt.Vecs {
		eqVec("opt vec", a.Opt.Vecs[i], b.Opt.Vecs[i])
	}
	if a.Agg.DeltaMax != b.Agg.DeltaMax || a.StaleSum != b.StaleSum || a.StaleN != b.StaleN ||
		a.Tracker != b.Tracker {
		t.Fatal("staleness state mismatch")
	}
	if len(a.Agg.Queue) != len(b.Agg.Queue) {
		t.Fatalf("queue length %d vs %d", len(a.Agg.Queue), len(b.Agg.Queue))
	}
	for i := range a.Agg.Queue {
		qa, qb := a.Agg.Queue[i], b.Agg.Queue[i]
		if qa.LearnerID != qb.LearnerID || qa.BornVersion != qb.BornVersion ||
			qa.Samples != qb.Samples || qa.MeanRatio != qb.MeanRatio || qa.KL != qb.KL {
			t.Fatalf("queue[%d] mismatch", i)
		}
		eqVec("queue grad", qa.Grad, qb.Grad)
	}
	if a.Episodes != b.Episodes {
		t.Fatal("episodes mismatch")
	}
	eqVec("returns", a.Returns, b.Returns)
	eqWorkers := func(name string, x, y []WorkerState) {
		if len(x) != len(y) {
			t.Fatalf("%s length %d vs %d", name, len(x), len(y))
		}
		for i := range x {
			if x[i] != y[i] {
				t.Fatalf("%s[%d]: %+v vs %+v", name, i, x[i], y[i])
			}
		}
	}
	eqWorkers("actors", a.Actors, b.Actors)
	eqWorkers("learners", a.Learners, b.Learners)
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	c := sampleCheckpoint(42)
	got, err := Decode(Encode(c))
	if err != nil {
		t.Fatal(err)
	}
	equalCheckpoints(t, c, got)
}

func TestDecodeRejectsCorruption(t *testing.T) {
	b := Encode(sampleCheckpoint(1))
	for _, tc := range []struct {
		name   string
		mutate func([]byte) []byte
		want   string // in the error, when set
	}{
		{"empty", func(b []byte) []byte { return nil }, ""},
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b }, ""},
		{"bad version", func(b []byte) []byte { b[11] = 99; return b }, ""},
		// Version 1 was big-endian: its own build's file reads as 1<<24.
		{"version 1", func(b []byte) []byte { binary.LittleEndian.PutUint32(b[8:], 1); return b }, "format version 1 "},
		{"version 1 as its build wrote it", func(b []byte) []byte { binary.BigEndian.PutUint32(b[8:], 1); return b }, "format version 16777216 "},
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }, ""},
		{"flipped payload bit", func(b []byte) []byte { b[headerLen+5] ^= 0x01; return b }, ""},
		{"flipped crc", func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b }, ""},
		{"trailing garbage", func(b []byte) []byte { return append(b, 0xde, 0xad) }, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cp := append([]byte(nil), b...)
			_, err := Decode(tc.mutate(cp))
			if err == nil {
				t.Fatal("corrupt checkpoint decoded without error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want it to name %q", err, tc.want)
			}
		})
	}
}

// reseal rewrites b's CRC over whatever its payload bytes now are, so a
// mutated checkpoint gets past the checksum to the field parser.
func reseal(b []byte) []byte {
	if len(b) >= headerLen+4 {
		binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(b[headerLen:len(b)-4]))
	}
	return b
}

// Decode must survive arbitrary mutations without panicking — a corrupt
// length prefix must not trigger a huge allocation or out-of-bounds read.
// Each mutated input is resealed, so the mutations reach the parser
// rather than stopping at the CRC.
func TestDecodeFuzzSafety(t *testing.T) {
	b := Encode(sampleCheckpoint(3))
	r := rng.New(1234)
	parsed := 0
	for i := 0; i < 500; i++ {
		cp := append([]byte(nil), b...)
		for k := 0; k < 4; k++ {
			cp[r.Intn(len(cp))] ^= byte(1 << r.Intn(8))
		}
		if _, err := Decode(reseal(cp)); err == nil || strings.Contains(err.Error(), "ckpt: payload") {
			parsed++ // decoded, or refused by the field parser
		}
	}
	t.Logf("%d of 500 mutated checkpoints reached the field parser", parsed)
	if parsed < 250 {
		t.Fatalf("only %d of 500 mutated checkpoints reached the field parser", parsed)
	}
}

// TestCraftedLengthsFailCleanly: a resealed checkpoint whose count or
// length field no payload could back is refused, never a panic or an
// allocation of its size — including counts whose byte size wraps a
// 32-bit int (2^29+1 weights is 8 bytes there) and lengths a 32-bit
// int reads as negative. `make cross` runs this under GOARCH=386.
func TestCraftedLengthsFailCleanly(t *testing.T) {
	c := sampleCheckpoint(3)
	c.Fp.Env, c.Fp.Algo = "", ""
	b := Encode(c)
	// Field offsets in the payload of a fingerprint with empty strings.
	const (
		envAt     = headerLen + 1
		weightsAt = envAt + 4 + 4 + 8*8 + 8 + 3*8 + 8 + 8
		optNameAt = weightsAt + 4 + 4*8
	)
	if got := binary.LittleEndian.Uint32(b[weightsAt:]); got != 4 {
		t.Fatalf("weights count at offset %d reads %d, want 4", weightsAt, got)
	}
	for _, n := range []uint32{1<<29 + 1, 1<<31 + 1, math.MaxUint32 - 15} {
		for name, at := range map[string]int{"env length": envAt, "weights count": weightsAt, "optimizer name length": optNameAt} {
			t.Run(fmt.Sprintf("%s %#x", name, n), func(t *testing.T) {
				cp := append([]byte(nil), b...)
				binary.LittleEndian.PutUint32(cp[at:], n)
				if got, err := Decode(reseal(cp)); err == nil {
					t.Fatalf("decoded %d weights", len(got.Weights))
				}
			})
		}
	}
}

// FuzzCheckpointDecode: Decode never panics, on the raw input or on the
// input resealed behind a valid header and CRC (so it reaches the field
// parser); whatever it accepts re-encodes to a checkpoint that decodes
// to the same bits; and a checkpoint carrying the input's bytes as
// weights round-trips bit for bit (every NaN payload included).
func FuzzCheckpointDecode(f *testing.F) {
	f.Add(Encode(sampleCheckpoint(3)))
	f.Add([]byte{})
	f.Add([]byte(magic))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = Decode(data)
		sealed := reseal(append(append(make([]byte, headerLen), data...), 0, 0, 0, 0))
		copy(sealed, magic)
		binary.LittleEndian.PutUint32(sealed[8:], formatVersion)
		binary.LittleEndian.PutUint64(sealed[12:], uint64(len(data)))
		if c, err := Decode(sealed); err == nil {
			requireRoundTrip(t, c)
		}
		c := sampleCheckpoint(1)
		c.Weights = make([]float64, len(data)/8)
		for i := range c.Weights {
			c.Weights[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		requireRoundTrip(t, c)
	})
}

// requireRoundTrip holds Decode(Encode(c)) to c bit for bit: Encode
// writes every field's bits, floats by Float64bits, so equal encodings
// are equal checkpoints.
func requireRoundTrip(t *testing.T, c *Checkpoint) {
	t.Helper()
	enc := Encode(c)
	got, err := Decode(enc)
	if err != nil {
		t.Fatalf("Decode(Encode): %v", err)
	}
	if again := Encode(got); !bytes.Equal(again, enc) {
		t.Fatalf("round trip changed the checkpoint: %d bytes, then %d", len(enc), len(again))
	}
}

func TestFingerprintValidate(t *testing.T) {
	fp := sampleCheckpoint(0).Fp
	if err := fp.Validate(fp); err != nil {
		t.Fatal(err)
	}
	other := fp
	other.Hidden = 32
	other.Seed = 6
	err := fp.Validate(other)
	if err == nil {
		t.Fatal("mismatched fingerprint accepted")
	}
	if !strings.Contains(err.Error(), "hidden") || !strings.Contains(err.Error(), "seed") {
		t.Fatalf("error does not name mismatched fields: %v", err)
	}
}

func TestSaveLoadAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c.ckpt")
	c := sampleCheckpoint(7)
	if err := Save(path, c); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	equalCheckpoints(t, c, got)
	// No temp litter.
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Fatalf("expected 1 file, found %d", len(entries))
	}
}

func TestWriteDirPrunesAndLoadLatest(t *testing.T) {
	dir := t.TempDir()
	for v := int64(1); v <= 5; v++ {
		if _, err := WriteDir(dir, sampleCheckpoint(v)); err != nil {
			t.Fatal(err)
		}
	}
	names, err := listCheckpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != keepCheckpoints {
		t.Fatalf("expected %d retained checkpoints, found %v", keepCheckpoints, names)
	}
	c, path, err := LoadLatest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if c.Version != 5 {
		t.Fatalf("latest version %d, want 5", c.Version)
	}
	if filepath.Base(path) != fileName(5) {
		t.Fatalf("latest path %s", path)
	}
}

func TestLoadLatestSkipsCorrupt(t *testing.T) {
	// Corrupt the newest generation, or give it the format version an
	// earlier build wrote; recovery must fall back to v2 either way.
	for name, mutate := range map[string]func([]byte){
		"flipped crc":      func(b []byte) { b[len(b)-1] ^= 0xff },
		"format version 1": func(b []byte) { binary.BigEndian.PutUint32(b[8:], 1) },
	} {
		dir := t.TempDir()
		for v := int64(1); v <= 3; v++ {
			if _, err := WriteDir(dir, sampleCheckpoint(v)); err != nil {
				t.Fatal(err)
			}
		}
		newest := filepath.Join(dir, fileName(3))
		b, err := os.ReadFile(newest)
		if err != nil {
			t.Fatal(err)
		}
		mutate(b)
		if err := os.WriteFile(newest, b, 0o644); err != nil {
			t.Fatal(err)
		}
		c, _, err := LoadLatest(dir)
		if err != nil {
			t.Fatal(err)
		}
		if c.Version != 2 {
			t.Fatalf("%s: fell back to version %d, want 2", name, c.Version)
		}
	}
}

func TestLoadLatestEmpty(t *testing.T) {
	if _, _, err := LoadLatest(t.TempDir()); err != ErrNoCheckpoint {
		t.Fatalf("err = %v, want ErrNoCheckpoint", err)
	}
	if _, _, err := LoadLatest(filepath.Join(t.TempDir(), "missing")); err != ErrNoCheckpoint {
		t.Fatalf("missing dir err = %v, want ErrNoCheckpoint", err)
	}
}
