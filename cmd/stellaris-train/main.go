// Command stellaris-train runs a single training configuration and
// writes the per-round telemetry CSV (the artifact's output schema) to
// stdout or a file.
//
// Usage:
//
//	stellaris-train -env hopper -algo ppo -rounds 50 -actors 16
//	stellaris-train -env invaders -agg sync -serverless=false -o out.csv
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"stellaris"
	"stellaris/internal/cache"
	"stellaris/internal/core"
	"stellaris/internal/env"
	"stellaris/internal/obs"
)

func main() {
	var cfg core.Config
	var (
		agg        = flag.String("agg", "stellaris", "aggregator: stellaris, softsync, ssp, async, sync")
		serverless = flag.Bool("serverless", true, "serverless learners (false = serverful)")
		slActors   = flag.Bool("serverless-actors", false, "serverless actors")
		out        = flag.String("o", "", "CSV output path (default stdout)")
		listEnvs   = flag.Bool("envs", false, "list environments and exit")
		savePath   = flag.String("save", "", "write final policy weights to this checkpoint")
		loadPath   = flag.String("load", "", "warm-start from a checkpoint written with -save")
		evalEps    = flag.Int("eval", 0, "after training, greedy-evaluate this many episodes")
		obsAddr    = flag.String("obs-addr", "", "metrics/pprof HTTP address (e.g. :9090; empty disables)")
		obsDir     = flag.String("obs-dir", "", "write metrics.{json,csv,prom} snapshots here when the run ends")
		obsID      = flag.String("obs-id", "", "self-register as this fleet instance ID so stellaris-obsd discovers the run (requires -obs-addr and -obs-cache)")
		obsCache   = flag.String("obs-cache", "", "cache address the self-registration heartbeat writes to")
		hbEvery    = flag.Duration("heartbeat-every", time.Second, "self-registration heartbeat interval")
	)
	flag.StringVar(&cfg.Env, "env", "hopper", "environment name")
	flag.StringVar(&cfg.Algo, "algo", "ppo", "algorithm: ppo or impact")
	flag.Uint64Var(&cfg.Seed, "seed", 1, "random seed")
	flag.IntVar(&cfg.Rounds, "rounds", 50, "training rounds")
	flag.IntVar(&cfg.UpdatesPerRound, "updates-per-round", 8, "policy updates per round")
	flag.IntVar(&cfg.NumActors, "actors", 8, "number of actors")
	flag.IntVar(&cfg.ActorSteps, "actor-steps", 128, "timesteps per actor trajectory")
	flag.IntVar(&cfg.BatchSize, "batch", 0, "learner batch size (0 = algorithm default)")
	flag.IntVar(&cfg.Hidden, "hidden", 0, "MLP width (0 = paper's 256)")
	flag.IntVar(&cfg.FrameSize, "frame", 0, "image frame edge (0 = default 44)")
	flag.IntVar(&cfg.GPUs, "gpus", 1, "GPUs backing learner functions")
	flag.IntVar(&cfg.LearnersPerGPU, "learners-per-gpu", 4, "learner slots per GPU")
	flag.Float64Var(&cfg.DecayD, "d", 0.96, "staleness decay factor d (Eq. 3)")
	flag.IntVar(&cfg.SmoothV, "v", 3, "learning-rate smoothness v (Eq. 4)")
	flag.Float64Var(&cfg.Rho, "rho", 1.0, "IS truncation threshold rho (Eq. 2)")
	flag.BoolVar(&cfg.DisableTruncation, "no-trunc", false, "disable IS truncation")
	flag.BoolVar(&cfg.SyncActors, "sync-actors", false, "synchronous actors (Fig. 1a)")
	flag.BoolVar(&cfg.HPC, "hpc", false, "use HPC-cluster instance types")
	flag.Float64Var(&cfg.LearningRate, "lr", 0, "learning-rate override (0 = Table III)")
	flag.BoolVar(&cfg.TrackKL, "track-kl", false, "record per-update policy KL")
	flag.Parse()

	if *listEnvs {
		for _, n := range env.Names() {
			fmt.Println(n)
		}
		return
	}
	cfg.Aggregator = core.AggregatorKind(*agg)
	cfg.ServerlessLearners = *serverless
	cfg.ServerlessActors = *slActors
	if *loadPath != "" {
		_, w, err := stellaris.LoadWeights(*loadPath)
		if err != nil {
			fatal(err)
		}
		cfg.InitWeights = w
	}

	if *obsAddr != "" || *obsDir != "" {
		cfg.Obs = obs.NewRegistry()
	}
	if *obsAddr != "" {
		hs, err := obs.Serve(*obsAddr, cfg.Obs)
		if err != nil {
			fatal(err)
		}
		defer hs.Close()
		fmt.Fprintf(os.Stderr, "metrics on http://%s/metrics (pprof under /debug/pprof/)\n", hs.Addr())
		fmt.Fprintf(os.Stderr, "causal trace on http://%s/trace.chrome.json once training starts (open in ui.perfetto.dev)\n", hs.Addr())
		// Fleet self-registration (DESIGN.md §12): announce the obs
		// endpoint into the cache tier so stellaris-obsd scrapes the run.
		if *obsID != "" {
			if *obsCache == "" {
				fatal(fmt.Errorf("-obs-id requires -obs-cache"))
			}
			hbConn, err := cache.Dial(*obsCache)
			if err != nil {
				fatal(fmt.Errorf("obs-cache dial: %w", err))
			}
			hb := cache.StartHeartbeat(hbConn, cache.Instance{
				ID: *obsID, Role: "train", Addr: hs.Addr(), Shard: -1, PID: os.Getpid(),
			}, *hbEvery)
			defer func() { hb.Stop(); _ = hbConn.Close() }()
			fmt.Fprintf(os.Stderr, "registered as %q in fleet registry at %s\n", *obsID, *obsCache)
		}
	} else if *obsID != "" {
		fatal(fmt.Errorf("-obs-id requires -obs-addr (there is nothing to scrape otherwise)"))
	}

	t, err := core.NewTrainer(cfg)
	if err != nil {
		fatal(err)
	}
	res, err := t.Run()
	if err != nil {
		fatal(err)
	}
	if *obsDir != "" {
		if err := obs.Dump(cfg.Obs, *obsDir); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "metrics snapshots written to %s\n", *obsDir)
	}
	if *savePath != "" {
		rounds := len(res.Rounds.Rows)
		if err := stellaris.SaveWeights(*savePath, rounds, res.FinalWeights); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "saved checkpoint to %s\n", *savePath)
	}
	if *evalEps > 0 {
		rep, err := core.Evaluate(cfg, res.FinalWeights, *evalEps, cfg.Seed+1)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "greedy eval over %d episodes: return %.2f ± %.2f (mean length %.0f)\n",
			rep.Episodes, rep.MeanReturn, rep.StdReturn, rep.MeanLength)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := res.Rounds.WriteCSV(w); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr,
		"final reward %.2f | episodes %d | cost $%.4f | wall %.1fs virtual | learner util %.0f%% | cold starts %d\n",
		res.FinalReward, res.Episodes, res.TotalCostUSD, res.WallSec,
		100*res.LearnerUtilization, res.ColdStarts)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "stellaris-train:", err)
	os.Exit(1)
}
