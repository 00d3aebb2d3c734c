package bench

import (
	"fmt"

	"stellaris/internal/baselines"
	"stellaris/internal/core"
	"stellaris/internal/metrics"
)

// curvesVs runs baseline vs Stellaris-integrated variants over the six
// environments and prints both learning curves plus the improvement
// factor — the shared shape of Figs. 6, 7, 9 and 10. As in the paper's
// figures, the two systems are compared on a shared wall-clock axis: the
// baseline trains for the scale's round budget, and the Stellaris
// variant trains for the *same virtual time* (its asynchronous learners
// fit more policy updates into that window — that is the paper's
// "statistical efficiency and wall clock time" advantage).
func curvesVs(opt Options, title, algoName string,
	mkBase func(core.Config) core.Config) error {
	fmt.Fprintln(opt.Out, title)
	for _, envName := range opt.envList() {
		cfg := baseConfig(envName, algoName, opt.Scale, 41, opt.Rounds)
		baseCfg := mkBase(cfg)
		stelCfg := baselines.StellarisOn(baseCfg)

		base, err := trainSeeds(baseCfg, opt.Seeds)
		if err != nil {
			return fmt.Errorf("%s baseline: %w", envName, err)
		}
		// Equal-time budget: let the Stellaris variant use the wall
		// clock the baseline consumed, with a generous round cap.
		stelCfg.WallBudgetSec = base.wall
		stelCfg.Rounds = baseCfg.Rounds * 8
		stel, err := trainSeeds(stelCfg, opt.Seeds)
		if err != nil {
			return fmt.Errorf("%s stellaris: %w", envName, err)
		}
		imp := ratioOrInf(stel.final, base.final)
		save := 0.0
		if base.cost > 0 {
			save = 100 * (1 - stel.cost/base.cost)
		}
		fmt.Fprintf(opt.Out, "\n%s: final %8.2f -> %8.2f (%.2fx), cost $%.4f -> $%.4f (%.0f%% saved) at equal wall %.0fs\n",
			envName, base.final, stel.final, imp, base.cost, stel.cost, save, base.wall)
		printSeries(opt.Out, "  baseline", base.rewards)
		printSeries(opt.Out, "  +stellaris", stel.rewards)
		metrics.Plot(opt.Out, "  reward (equal wall-clock; stellaris curve has more rounds)",
			10, 64,
			metrics.Series{Name: "baseline", Points: base.rewards},
			metrics.Series{Name: "+stellaris", Points: stel.rewards},
		)
	}
	return nil
}

// ratioOrInf returns a/b guarding division by ~0.
func ratioOrInf(a, b float64) float64 {
	if b <= 1e-9 && b >= -1e-9 {
		return 0
	}
	return a / b
}

// Fig6 reproduces "Stellaris accelerates PPO training": vanilla
// distributed PPO vs Stellaris+PPO in six environments. Expected shape:
// Stellaris's curve dominates; the paper reports up to 2.2x final
// reward.
func Fig6(opt Options) error {
	return curvesVs(opt, "Fig. 6 — Stellaris accelerates PPO", "ppo", baselines.Vanilla)
}

// Fig7 reproduces "Stellaris accelerates IMPACT training" (up to 1.3x in
// the paper).
func Fig7(opt Options) error {
	return curvesVs(opt, "Fig. 7 — Stellaris accelerates IMPACT", "impact", baselines.Vanilla)
}

// Fig9 reproduces the RLlib-framework integration (up to 1.3x reward,
// 38% cost reduction in the paper). The RLlib-like baseline is the
// vanilla configuration (baselines.Vanilla).
func Fig9(opt Options) error {
	return curvesVs(opt, "Fig. 9 — Stellaris improves RLlib-like training (PPO)", "ppo", baselines.Vanilla)
}

// Fig10 reproduces the MinionsRL-framework integration (up to 1.6x
// reward, 41% cost reduction in the paper).
func Fig10(opt Options) error {
	return curvesVs(opt, "Fig. 10 — Stellaris improves MinionsRL-like training (PPO)", "ppo", baselines.MinionsRLLike)
}

// Fig8 reproduces the training-cost comparison: for each environment the
// cost of PPO, IMPACT, RLlib-like and MinionsRL-like, each with and
// without Stellaris, split into learner and actor time shares (the grey
// bars). Expected shape: Stellaris variants are cheaper everywhere (up
// to 31/30/38/41% in the paper).
func Fig8(opt Options) error {
	type system struct {
		name string
		algo string
		mk   func(core.Config) core.Config
	}
	systems := []system{
		{"PPO", "ppo", baselines.Vanilla},
		{"IMPACT", "impact", baselines.Vanilla},
		{"RLlib", "ppo", baselines.Vanilla},
		{"MinionsRL", "ppo", baselines.MinionsRLLike},
	}
	rounds := opt.Rounds
	if rounds == 0 && opt.Scale == "small" {
		rounds = 8 // cost comparison needs fewer rounds than curves
	}
	fmt.Fprintln(opt.Out, "Fig. 8 — training cost (USD) and learner-time share")
	for _, envName := range opt.envList() {
		fmt.Fprintf(opt.Out, "\n%s:\n", envName)
		for _, sys := range systems {
			cfg := sys.mk(baseConfig(envName, sys.algo, opt.Scale, 53, rounds))
			for _, variant := range []struct {
				label string
				cfg   core.Config
			}{
				{sys.name, cfg},
				{sys.name + "+Stellaris", baselines.StellarisOn(cfg)},
			} {
				t, err := core.NewTrainer(variant.cfg)
				if err != nil {
					return err
				}
				res, err := t.Run()
				if err != nil {
					return fmt.Errorf("%s %s: %w", envName, variant.label, err)
				}
				learnShare := 0.0
				if res.WallSec > 0 {
					learnShare = 100 * res.LearnerTime / (res.LearnerTime + res.Breakdown.Total(core.CompActorSample))
				}
				fmt.Fprintf(opt.Out, "  %-22s cost $%8.4f  learner-share %4.0f%%\n",
					variant.label, res.TotalCostUSD, learnShare)
			}
		}
	}
	return nil
}

// Fig12 reproduces the HPC-cluster experiment: PAR-RL vs
// Stellaris-integrated PAR-RL on Hopper and Qbert(a) with the
// p3.16xlarge/hpc7a.96xlarge fleet. The paper reports 2.4x/1.1x reward
// and 19%/34% cost reductions.
func Fig12(opt Options) error {
	fmt.Fprintln(opt.Out, "Fig. 12 — Stellaris with PAR-RL on the HPC cluster")
	for _, envName := range []string{"hopper", "qberta"} {
		cfg := baseConfig(envName, "ppo", opt.Scale, 61, opt.Rounds)
		if opt.Scale == "paper" {
			cfg.GPUs = 16
			cfg.NumActors = 960
		} else {
			cfg.GPUs = 2
			cfg.NumActors = 16
		}
		parrl := baselines.PARRLLike(cfg)
		stel := baselines.StellarisOn(parrl)

		base, err := trainSeeds(parrl, opt.Seeds)
		if err != nil {
			return err
		}
		stel.WallBudgetSec = base.wall
		stel.Rounds = parrl.Rounds * 8
		stelRes, err := trainSeeds(stel, opt.Seeds)
		if err != nil {
			return err
		}
		save := 0.0
		if base.cost > 0 {
			save = 100 * (1 - stelRes.cost/base.cost)
		}
		fmt.Fprintf(opt.Out, "\n%s: final %8.2f -> %8.2f (%.2fx), cost $%.4f -> $%.4f (%.0f%% saved) at equal wall %.0fs\n",
			envName, base.final, stelRes.final, ratioOrInf(stelRes.final, base.final),
			base.cost, stelRes.cost, save, base.wall)
		printSeries(opt.Out, "  par-rl", base.rewards)
		printSeries(opt.Out, "  +stellaris", stelRes.rewards)
	}
	return nil
}
