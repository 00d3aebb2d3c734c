// Package ckpt implements Stellaris's crash-safe training checkpoints.
//
// A checkpoint captures everything the parameter function needs to
// resume mid-training after a process kill: the policy weights, the
// optimizer moments, the policy-version counter and round index, the
// staleness-threshold state (the warmup-measured δ_max anchoring Eq. 3's
// β_k schedule plus any gradients delayed in the aggregation queue), the
// importance-truncation group state (Eq. 2), and — for the deterministic
// lockstep pipeline — every worker's RNG stream position and gradient
// sequence number, so a seeded resumed run reproduces the uninterrupted
// run's trajectory bit for bit.
//
// The on-disk format is stdlib-only (encoding/binary + CRC-32):
//
//	magic "STLCKPT1" (8 bytes)
//	u32   format version (currently 2)
//	u64   payload length
//	payload (see Encode)
//	u32   CRC-32 (IEEE) of the payload
//
// All integers are little-endian, like the cache payload codec, and
// Decode reads them through wire.Reader. Version 1 was the same layout
// big-endian; it is refused, so LoadLatest skips such a generation like
// any other it cannot decode. Writes go through an O_EXCL temp file,
// fsync, and atomic rename, so a crash mid-write never corrupts the
// previous checkpoint; Load verifies the checksum, so a torn or
// bit-rotted file is rejected rather than resumed from.
package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"stellaris/internal/istrunc"
	"stellaris/internal/optim"
	"stellaris/internal/rng"
	"stellaris/internal/stale"
	"stellaris/internal/wire"
)

// CacheKey is the reserved cache key mirroring the latest checkpoint, so
// a restarted trainer can resume even when its local checkpoint
// directory was lost (fresh container). Keys under "sys/" are reserved
// for system state and must not be used for trajectories or gradients.
const CacheKey = "sys/ckpt/latest"

// magic identifies a Stellaris checkpoint file.
const magic = "STLCKPT1"

// formatVersion is bumped on incompatible payload changes. Version 1
// was big-endian.
const formatVersion = 2

// headerLen is magic + format version + payload length.
const headerLen = 8 + 4 + 8

// maxPayload bounds decode allocations on adversarial input (matches the
// cache protocol's frame cap).
const maxPayload = 256 << 20

// ErrNoCheckpoint is returned by LoadLatest when the directory holds no
// readable checkpoint.
var ErrNoCheckpoint = errors.New("ckpt: no checkpoint found")

// Mode records which training pipeline wrote the checkpoint. Lockstep
// checkpoints carry worker RNG states and can only resume a lockstep
// run; async checkpoints resume the concurrent pipeline.
type Mode uint8

const (
	// ModeAsync is the concurrent goroutine pipeline.
	ModeAsync Mode = 0
	// ModeLockstep is the deterministic single-threaded pipeline.
	ModeLockstep Mode = 1
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeAsync:
		return "async"
	case ModeLockstep:
		return "lockstep"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// Fingerprint identifies the training configuration that produced a
// checkpoint. Resume refuses a checkpoint whose fingerprint does not
// match the current options: silently continuing with, say, a different
// hidden width or decay factor would corrupt training rather than
// resume it.
type Fingerprint struct {
	Env  string
	Algo string

	Hidden          int
	FrameSize       int
	Actors          int
	Learners        int
	ActorSteps      int
	BatchSize       int
	UpdatesPerRound int
	SmoothV         int

	Seed uint64

	DecayD       float64
	Rho          float64
	LearningRate float64
}

// Hash returns a short stable digest of the fingerprint (FNV-1a over
// the printed struct), suitable as a configuration identity on
// /buildinfo and in trace metadata.
func (fp Fingerprint) Hash() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", fp)
	return fmt.Sprintf("%016x", h.Sum64())
}

// Validate reports an error naming every field on which want differs
// from the checkpoint's fingerprint.
func (fp Fingerprint) Validate(want Fingerprint) error {
	if fp == want {
		return nil
	}
	var diffs []string
	add := func(field string, got, exp interface{}) {
		diffs = append(diffs, fmt.Sprintf("%s: checkpoint %v, options %v", field, got, exp))
	}
	if fp.Env != want.Env {
		add("env", fp.Env, want.Env)
	}
	if fp.Algo != want.Algo {
		add("algo", fp.Algo, want.Algo)
	}
	if fp.Hidden != want.Hidden {
		add("hidden", fp.Hidden, want.Hidden)
	}
	if fp.FrameSize != want.FrameSize {
		add("frame-size", fp.FrameSize, want.FrameSize)
	}
	if fp.Actors != want.Actors {
		add("actors", fp.Actors, want.Actors)
	}
	if fp.Learners != want.Learners {
		add("learners", fp.Learners, want.Learners)
	}
	if fp.ActorSteps != want.ActorSteps {
		add("actor-steps", fp.ActorSteps, want.ActorSteps)
	}
	if fp.BatchSize != want.BatchSize {
		add("batch-size", fp.BatchSize, want.BatchSize)
	}
	if fp.UpdatesPerRound != want.UpdatesPerRound {
		add("updates-per-round", fp.UpdatesPerRound, want.UpdatesPerRound)
	}
	if fp.SmoothV != want.SmoothV {
		add("smooth-v", fp.SmoothV, want.SmoothV)
	}
	if fp.Seed != want.Seed {
		add("seed", fp.Seed, want.Seed)
	}
	if fp.DecayD != want.DecayD {
		add("decay-d", fp.DecayD, want.DecayD)
	}
	if fp.Rho != want.Rho {
		add("rho", fp.Rho, want.Rho)
	}
	if fp.LearningRate != want.LearningRate {
		add("learning-rate", fp.LearningRate, want.LearningRate)
	}
	return fmt.Errorf("ckpt: fingerprint mismatch (%s)", strings.Join(diffs, "; "))
}

// WorkerState is one worker goroutine's deterministic-replay state.
type WorkerState struct {
	// RNG is the worker's generator position.
	RNG rng.State
	// Seq is the worker's next trajectory/gradient sequence number.
	Seq int64
}

// Checkpoint is the full resumable training state.
type Checkpoint struct {
	Mode Mode
	Fp   Fingerprint

	// Version is the policy-version counter; Round is Version divided by
	// UpdatesPerRound (stored explicitly so Eq. 3's round index survives
	// config-independent inspection).
	Version int64
	Round   int64

	// Weights and Opt are the policy parameters and optimizer moments.
	Weights []float64
	Opt     optim.State

	// Agg is the aggregator's warmup-measured δ_max and the gradients
	// its threshold delays, persisted so the resumed run aggregates the
	// identical groups. A queued entry's Enqueued time and Trace are not
	// persisted.
	Agg stale.StellarisState
	// StaleSum/StaleN accumulate the MeanStaleness report statistic.
	StaleSum float64
	StaleN   int64

	// Tracker is the truncation tracker's in-flight group (Eq. 2);
	// its GroupMin is +Inf for an empty group.
	Tracker istrunc.TrackerState

	// Episodes and Returns accumulate the episode-return report.
	Episodes int64
	Returns  []float64

	// Actors and Learners carry per-worker replay state; present only in
	// ModeLockstep checkpoints.
	Actors   []WorkerState
	Learners []WorkerState
}

// --- binary encoding -------------------------------------------------

// Per-element byte floors of the payload's counted sections: a vector's
// own count, a queued gradient's five fixed fields and its count, and a
// worker's RNG words, spare, flag and sequence number.
const (
	vecFloor    = 4
	queuedFloor = 5*8 + 4
	workerFloor = 4*8 + 8 + 1 + 8
)

func appendStr(b []byte, s string) []byte {
	return append(binary.LittleEndian.AppendUint32(b, uint32(len(s))), s...)
}

func appendVec(b []byte, v []float64) []byte {
	return wire.AppendF64s(binary.LittleEndian.AppendUint32(b, uint32(len(v))), v)
}

func appendFingerprint(b []byte, fp Fingerprint) []byte {
	le := binary.LittleEndian
	b = appendStr(b, fp.Env)
	b = appendStr(b, fp.Algo)
	for _, v := range []int{fp.Hidden, fp.FrameSize, fp.Actors, fp.Learners,
		fp.ActorSteps, fp.BatchSize, fp.UpdatesPerRound, fp.SmoothV} {
		b = le.AppendUint64(b, uint64(v))
	}
	b = le.AppendUint64(b, fp.Seed)
	b = le.AppendUint64(b, math.Float64bits(fp.DecayD))
	b = le.AppendUint64(b, math.Float64bits(fp.Rho))
	return le.AppendUint64(b, math.Float64bits(fp.LearningRate))
}

func readFingerprint(r *wire.Reader) Fingerprint {
	var fp Fingerprint
	fp.Env = r.String()
	fp.Algo = r.String()
	for _, p := range []*int{&fp.Hidden, &fp.FrameSize, &fp.Actors, &fp.Learners,
		&fp.ActorSteps, &fp.BatchSize, &fp.UpdatesPerRound, &fp.SmoothV} {
		*p = int(r.I64())
	}
	fp.Seed = r.U64()
	fp.DecayD = r.F64()
	fp.Rho = r.F64()
	fp.LearningRate = r.F64()
	return fp
}

func appendWorkers(b []byte, ws []WorkerState) []byte {
	le := binary.LittleEndian
	b = le.AppendUint32(b, uint32(len(ws)))
	for _, s := range ws {
		for _, x := range s.RNG.S {
			b = le.AppendUint64(b, x)
		}
		b = le.AppendUint64(b, math.Float64bits(s.RNG.Spare))
		var spare byte
		if s.RNG.HasSpare {
			spare = 1
		}
		b = le.AppendUint64(append(b, spare), uint64(s.Seq))
	}
	return b
}

func readWorkers(r *wire.Reader) []WorkerState {
	n := r.Count(workerFloor)
	if n == 0 {
		return nil
	}
	ws := make([]WorkerState, n)
	for i := range ws {
		for j := range ws[i].RNG.S {
			ws[i].RNG.S[j] = r.U64()
		}
		ws[i].RNG.Spare = r.F64()
		ws[i].RNG.HasSpare = r.U8() == 1
		ws[i].Seq = r.I64()
	}
	return ws
}

// Encode serializes the checkpoint into the framed, checksummed binary
// format.
func Encode(c *Checkpoint) []byte {
	le := binary.LittleEndian
	b := make([]byte, headerLen, headerLen+1024+8*len(c.Weights)*(1+len(c.Opt.Vecs)))
	b = append(b, uint8(c.Mode))
	b = appendFingerprint(b, c.Fp)
	b = le.AppendUint64(b, uint64(c.Version))
	b = le.AppendUint64(b, uint64(c.Round))
	b = appendVec(b, c.Weights)
	b = appendStr(b, c.Opt.Name)
	b = le.AppendUint64(b, uint64(c.Opt.Step))
	b = le.AppendUint32(b, uint32(len(c.Opt.Vecs)))
	for _, v := range c.Opt.Vecs {
		b = appendVec(b, v)
	}
	b = le.AppendUint64(b, math.Float64bits(c.Agg.DeltaMax))
	b = le.AppendUint64(b, math.Float64bits(c.StaleSum))
	b = le.AppendUint64(b, uint64(c.StaleN))
	b = le.AppendUint64(b, math.Float64bits(c.Tracker.GroupMin))
	b = le.AppendUint64(b, uint64(c.Tracker.Count))
	b = le.AppendUint32(b, uint32(len(c.Agg.Queue)))
	for _, q := range c.Agg.Queue {
		b = le.AppendUint64(b, uint64(q.LearnerID))
		b = le.AppendUint64(b, uint64(q.BornVersion))
		b = le.AppendUint64(b, uint64(q.Samples))
		b = le.AppendUint64(b, math.Float64bits(q.MeanRatio))
		b = le.AppendUint64(b, math.Float64bits(q.KL))
		b = appendVec(b, q.Grad)
	}
	b = le.AppendUint64(b, uint64(c.Episodes))
	b = appendVec(b, c.Returns)
	b = appendWorkers(b, c.Actors)
	b = appendWorkers(b, c.Learners)

	// The header was left room for at the front, so the payload is
	// checksummed where it lies instead of copied behind one.
	payload := b[headerLen:]
	copy(b, magic)
	le.PutUint32(b[8:], formatVersion)
	le.PutUint64(b[12:], uint64(len(payload)))
	return le.AppendUint32(b, crc32.ChecksumIEEE(payload))
}

// Decode parses and verifies an encoded checkpoint. It never panics on
// malformed input: the CRC is verified before field decoding begins,
// and every field is read through wire.Reader, which holds each count
// to the bytes remaining before anything is allocated.
func Decode(b []byte) (*Checkpoint, error) {
	if len(b) < headerLen+4 {
		return nil, fmt.Errorf("ckpt: %d bytes is too short for a checkpoint", len(b))
	}
	if string(b[:8]) != magic {
		return nil, errors.New("ckpt: bad magic (not a checkpoint)")
	}
	h := wire.NewReader(b[8:])
	if v := h.U32(); v != formatVersion {
		return nil, fmt.Errorf("ckpt: unsupported format version %d (want %d)", v, formatVersion)
	}
	plen := h.U64()
	payload := h.Bytes(len(b) - headerLen - 4)
	if plen > maxPayload || plen != uint64(len(payload)) {
		return nil, fmt.Errorf("ckpt: payload length %d inconsistent with file size %d", plen, len(b))
	}
	if got, want := crc32.ChecksumIEEE(payload), h.U32(); got != want {
		return nil, fmt.Errorf("ckpt: checksum mismatch (got %08x, want %08x)", got, want)
	}

	r := wire.NewReader(payload)
	c := &Checkpoint{}
	c.Mode = Mode(r.U8())
	c.Fp = readFingerprint(&r)
	c.Version = r.I64()
	c.Round = r.I64()
	c.Weights = r.F64s(nil)
	c.Opt.Name = r.String()
	c.Opt.Step = r.I64()
	if n := r.Count(vecFloor); n > 0 {
		c.Opt.Vecs = make([][]float64, n)
		for i := range c.Opt.Vecs {
			c.Opt.Vecs[i] = r.F64s(nil)
		}
	}
	c.Agg.DeltaMax = r.F64()
	c.StaleSum = r.F64()
	c.StaleN = r.I64()
	c.Tracker.GroupMin = r.F64()
	c.Tracker.Count = int(r.I64())
	if n := r.Count(queuedFloor); n > 0 {
		c.Agg.Queue = make([]*stale.Entry, n)
		for i := range c.Agg.Queue {
			q := &stale.Entry{}
			c.Agg.Queue[i] = q
			q.LearnerID = int(r.I64())
			q.BornVersion = int(r.I64())
			q.Samples = int(r.I64())
			q.MeanRatio = r.F64()
			q.KL = r.F64()
			q.Grad = r.F64s(nil)
		}
	}
	c.Episodes = r.I64()
	c.Returns = r.F64s(nil)
	c.Actors = readWorkers(&r)
	c.Learners = readWorkers(&r)
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("ckpt: payload: %w", err)
	}
	return c, nil
}

// --- file I/O --------------------------------------------------------

// Save writes the checkpoint to path atomically: encode to a temp file
// in the same directory, fsync, rename over the target, then fsync the
// directory so the rename itself is durable.
func Save(path string, c *Checkpoint) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return fmt.Errorf("ckpt: create temp: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func() {
		tmp.Close()
		os.Remove(tmpName)
	}
	if _, err := tmp.Write(Encode(c)); err != nil {
		cleanup()
		return fmt.Errorf("ckpt: write temp: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return fmt.Errorf("ckpt: sync temp: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("ckpt: close temp: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("ckpt: rename: %w", err)
	}
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}

// Load reads and verifies a checkpoint file.
func Load(path string) (*Checkpoint, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(b)
}

// keepCheckpoints is how many checkpoint generations WriteDir retains.
const keepCheckpoints = 3

// fileName returns the directory entry name for a checkpoint at the
// given version. Zero-padded so lexical order is version order.
func fileName(version int64) string {
	return fmt.Sprintf("ckpt-%012d.ckpt", version)
}

// WriteDir saves the checkpoint into dir under its version-stamped name
// and prunes all but the newest keepCheckpoints generations. It returns
// the written path.
func WriteDir(dir string, c *Checkpoint) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("ckpt: mkdir %s: %w", dir, err)
	}
	path := filepath.Join(dir, fileName(c.Version))
	if err := Save(path, c); err != nil {
		return "", err
	}
	names, err := listCheckpoints(dir)
	if err == nil {
		for i := 0; i < len(names)-keepCheckpoints; i++ {
			_ = os.Remove(filepath.Join(dir, names[i]))
		}
	}
	return path, nil
}

// listCheckpoints returns checkpoint file names in dir sorted oldest
// first (lexical order == version order by construction).
func listCheckpoints(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if !e.IsDir() && strings.HasPrefix(n, "ckpt-") && strings.HasSuffix(n, ".ckpt") {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names, nil
}

// LoadLatest loads the newest valid checkpoint in dir, skipping files
// that fail verification (a crash mid-write leaves at most a temp file,
// but disk corruption of an older generation must not block recovery
// from a good one). It returns ErrNoCheckpoint when nothing readable
// exists.
func LoadLatest(dir string) (*Checkpoint, string, error) {
	names, err := listCheckpoints(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, "", ErrNoCheckpoint
		}
		return nil, "", err
	}
	for i := len(names) - 1; i >= 0; i-- {
		path := filepath.Join(dir, names[i])
		c, err := Load(path)
		if err != nil {
			continue
		}
		return c, path, nil
	}
	return nil, "", ErrNoCheckpoint
}
