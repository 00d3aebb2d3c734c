// Package core is Stellaris's orchestrator: it wires actors, the GPU
// data loader, serverless learner functions, the parameter function and
// the distributed cache over the DES platform, implementing the
// three-step workflow of Fig. 4 (importance-sampling-driven trajectory
// collection → on-demand gradient calculation → staleness-aware gradient
// aggregation), plus the synchronous architectures of Fig. 1(a)-(c) the
// paper compares against.
package core

import (
	"fmt"

	"stellaris/internal/autoscale"
	"stellaris/internal/obs"
)

// AggregatorKind selects a gradient aggregation policy.
type AggregatorKind string

// Aggregation policies (Fig. 11a's ablation set plus full sync).
const (
	// AggStellaris is the staleness-aware adaptive threshold (Eqs. 3-4).
	AggStellaris AggregatorKind = "stellaris"
	// AggSoftsync is Zhang et al.'s fixed-group softsync.
	AggSoftsync AggregatorKind = "softsync"
	// AggSSP is stale synchronous parallel (dispatch gating, staleness
	// slack sspBound).
	AggSSP AggregatorKind = "ssp"
	// AggAsync is pure asynchronous aggregation (no control).
	AggAsync AggregatorKind = "async"
	// AggSync is fully synchronous aggregation (the serverful-baseline
	// learner architecture).
	AggSync AggregatorKind = "sync"
)

// Config describes one training run. Zero fields take the defaults
// documented per field; Normalize applies them.
type Config struct {
	// Env is the environment registry name.
	Env string
	// FrameSize overrides the image environments' frame edge (0 keeps
	// the default).
	FrameSize int
	// Algo selects "ppo" or "impact".
	Algo string
	// Seed drives every random stream in the run.
	Seed uint64
	// Rounds is the number of training rounds (the paper trains 50).
	// One round is UpdatesPerRound policy updates, mirroring RLlib-style
	// training iterations that each perform many SGD steps.
	Rounds int
	// UpdatesPerRound is the number of policy updates per training
	// round (default 8). Eq. 3's staleness threshold decays per round.
	UpdatesPerRound int
	// LearningRate overrides the algorithm's Table III base rate α₀
	// (0 keeps the table value). The substitute environments have
	// different reward scales than MuJoCo/Atari, so experiment presets
	// calibrate this; EXPERIMENTS.md records the values used.
	LearningRate float64
	// NumActors is the number of concurrent actors.
	NumActors int
	// ActorSteps is the timesteps each actor collects per trajectory
	// submission.
	ActorSteps int
	// BatchSize is the timesteps per learner batch (0 = the algorithm's
	// Table III default).
	BatchSize int
	// Hidden overrides the MLP trunk width (0 = the paper's 256).
	Hidden int
	// GPUs is the number of V100s backing learner functions.
	GPUs int
	// LearnersPerGPU caps concurrent learner functions per GPU (the
	// paper sets four).
	LearnersPerGPU int
	// Aggregator picks the aggregation policy (default AggStellaris).
	Aggregator AggregatorKind
	// DecayD is Eq. 3's exponential decay factor d (default 0.96).
	DecayD float64
	// SmoothV is Eq. 4's learning-rate smoothness root v (default 3).
	SmoothV int
	// Rho is Eq. 2's importance-sampling truncation threshold
	// (default 1.0).
	Rho float64
	// DisableTruncation turns Eq. 2 off (the Fig. 11b ablation).
	DisableTruncation bool
	// SyncActors makes actors wait for each policy update before
	// resampling (Fig. 1(a)); default false = asynchronous actors.
	SyncActors bool
	// ServerlessLearners bills learners per invocation; false models
	// pre-allocated serverful learner VMs.
	ServerlessLearners bool
	// ServerlessActors bills actors per invocation.
	ServerlessActors bool
	// SyncGroup is gradients per synchronous round (default: learner
	// slots, capped at the batches available per round under
	// SyncActors).
	SyncGroup int
	// HPC selects the HPC-cluster instance types (p3.16xlarge +
	// hpc7a.96xlarge) over the regular testbed.
	HPC bool
	// EvalWindow is the completed-episode window for the reward metric
	// (default 32).
	EvalWindow int
	// TrackKL records KL(π_k+1 ‖ π_k) per update on a probe batch
	// (Fig. 3c).
	TrackKL bool
	// WallBudgetSec stops training gracefully once virtual time reaches
	// this budget, whichever of it and Rounds comes first (0 = rounds
	// only). The paper's curves compare systems on a shared wall-clock
	// axis; equal-time comparisons use this knob.
	WallBudgetSec float64
	// InitWeights warm-starts training from a previously saved combined
	// weight vector (nil = fresh initialization). The vector must match
	// the model architecture implied by Env/Hidden/FrameSize.
	InitWeights []float64
	// Autoscale dynamically adjusts the active actor count each round
	// (Table I's "Scalable Actors"); NumActors is the ceiling. Nil
	// keeps the fleet static.
	Autoscale autoscale.Controller
	// Obs receives the run's DES metrics (des_* and serverless_*
	// families) and per-round trace spans. The registry's clock is
	// switched to the trainer's virtual clock, so timestamps are virtual
	// seconds. A Registry should observe exactly one run. Nil disables
	// instrumentation.
	Obs *obs.Registry

	// maxVirtualHours aborts runaway runs (default 48h of virtual
	// time). Tests shorten it.
	maxVirtualHours float64
}

// sspBound is SSP's staleness slack s.
const sspBound = 2

// Normalize fills defaults and validates; it returns the completed
// config or an error naming the offending field.
func (c Config) Normalize() (Config, error) {
	if c.Env == "" {
		c.Env = "hopper"
	}
	if c.Algo == "" {
		c.Algo = "ppo"
	}
	if c.Algo != "ppo" && c.Algo != "impact" {
		return c, fmt.Errorf("core: unknown algo %q", c.Algo)
	}
	if c.Rounds <= 0 {
		c.Rounds = 50
	}
	if c.UpdatesPerRound <= 0 {
		c.UpdatesPerRound = 8
	}
	if c.LearningRate < 0 {
		return c, fmt.Errorf("core: negative learning rate %v", c.LearningRate)
	}
	if c.NumActors <= 0 {
		c.NumActors = 8
	}
	if c.ActorSteps <= 0 {
		c.ActorSteps = 128
	}
	if c.GPUs <= 0 {
		c.GPUs = 1
	}
	if c.LearnersPerGPU <= 0 {
		c.LearnersPerGPU = 4
	}
	if c.Aggregator == "" {
		c.Aggregator = AggStellaris
	}
	switch c.Aggregator {
	case AggStellaris, AggSoftsync, AggSSP, AggAsync, AggSync:
	default:
		return c, fmt.Errorf("core: unknown aggregator %q", c.Aggregator)
	}
	if c.DecayD == 0 {
		c.DecayD = 0.96
	}
	if c.DecayD < 0 || c.DecayD > 1 {
		return c, fmt.Errorf("core: decay factor d=%v outside (0,1]", c.DecayD)
	}
	if c.SmoothV == 0 {
		c.SmoothV = 3
	}
	if c.Rho == 0 {
		c.Rho = 1.0
	}
	if c.Rho < 0 {
		return c, fmt.Errorf("core: truncation threshold rho=%v negative", c.Rho)
	}
	if c.EvalWindow <= 0 {
		c.EvalWindow = 32
	}
	if c.maxVirtualHours <= 0 {
		c.maxVirtualHours = 48
	}
	if c.SyncGroup <= 0 {
		c.SyncGroup = c.LearnerSlots()
	}
	return c, nil
}

// LearnerSlots returns the learner-function concurrency capacity.
func (c Config) LearnerSlots() int { return c.GPUs * c.LearnersPerGPU }
