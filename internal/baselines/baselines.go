// Package baselines configures the training architectures the paper
// compares Stellaris against (Table I, Figs. 6-10, 12):
//
//   - Vanilla PPO / IMPACT — serverful synchronous learners (Fig. 1(b)).
//     It also stands for RLlib-like (Figs. 8-9): Ray RLlib's learner
//     group is serverful synchronous multi-learner data parallelism with
//     asynchronous actors, which is this same configuration here.
//   - MinionsRL-like — serverless actors with one centralized
//     synchronous learner (Fig. 1(c)).
//   - PAR-RL-like — HPC synchronous data-parallel training (Fig. 12).
//
// Each function transforms a base core.Config (environment, seed,
// budget) into the architecture's configuration; StellarisOn applies the
// paper's integration — asynchronous serverless learners with
// staleness-aware aggregation and IS truncation — on top of any of them,
// exactly how §VIII-B integrates Stellaris into each framework.
package baselines

import (
	"stellaris/internal/autoscale"
	"stellaris/internal/core"
)

// Vanilla is the plain distributed algorithm baseline (the "PPO" and
// "IMPACT" bars of Figs. 6-8, and the RLlib-like ones of Figs. 8-9):
// serverful synchronous learners, serverful actors.
func Vanilla(base core.Config) core.Config {
	base.Aggregator = core.AggSync
	base.ServerlessLearners = false
	base.ServerlessActors = false
	base.DisableTruncation = true
	return base
}

// MinionsRLLike models MinionsRL (Yu et al., AAAI 2024): serverless
// actors scaled on demand, but a single centralized synchronous learner
// — the bottleneck §II-B describes.
func MinionsRLLike(base core.Config) core.Config {
	base.Aggregator = core.AggSync
	base.ServerlessLearners = true
	base.ServerlessActors = true
	base.DisableTruncation = true
	base.GPUs = 1
	base.LearnersPerGPU = 1 // centralized single learner
	base.SyncGroup = 1
	// MinionsRL's defining feature: a scheduler that scales serverless
	// actors dynamically. The utilization feedback controller is the
	// heuristic stand-in for its learned DQN scheduler.
	base.Autoscale = autoscale.NewUtilization()
	return base
}

// PARRLLike models the Argonne PAR-RL workload: synchronous
// data-parallel learners on HPC nodes with serverful actors.
func PARRLLike(base core.Config) core.Config {
	base.Aggregator = core.AggSync
	base.ServerlessLearners = false
	base.ServerlessActors = false
	base.DisableTruncation = true
	base.HPC = true
	return base
}

// StellarisOn integrates Stellaris into any baseline configuration:
// learners become asynchronous serverless functions with staleness-aware
// aggregation (Eqs. 3-4) and global IS truncation (Eq. 2). Actor
// placement (serverless or serverful) is inherited from the baseline, as
// in the paper's framework integrations; a centralized-learner baseline
// (MinionsRL) regains the paper's four learner functions per GPU, since
// "replacing its synchronous learners with our asynchronous serverless
// learner functions" (§VIII-B2) removes the single-learner bottleneck.
func StellarisOn(cfg core.Config) core.Config {
	cfg.Aggregator = core.AggStellaris
	cfg.ServerlessLearners = true
	cfg.DisableTruncation = false
	if cfg.LearnersPerGPU < 4 {
		cfg.LearnersPerGPU = 4
	}
	return cfg
}
