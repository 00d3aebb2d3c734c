package algo

// Hyper collects the hyperparameters of Table III. The zero value is not
// usable; start from PPOHyper or IMPACTHyper.
type Hyper struct {
	// LearningRate is the optimizer base rate α₀ (Eq. 4's numerator).
	LearningRate float64
	// Gamma is the reward discount factor.
	Gamma float64
	// Lambda is the GAE exponential weight.
	Lambda float64
	// BatchSize is the per-gradient sample-batch size: 4096 for the
	// continuous (MuJoCo-class) tasks, 256 for the image tasks.
	BatchSize int
	// MinibatchSize is the SGD minibatch within a learner pass.
	MinibatchSize int
	// ClipParam is the surrogate clipping range ε.
	ClipParam float64
	// KLCoeff weights the KL(π_new ‖ μ) penalty.
	KLCoeff float64
	// KLTarget is the desired per-update KL (used by the adaptive
	// coefficient controller).
	KLTarget float64
	// EntropyCoeff weights the entropy bonus.
	EntropyCoeff float64
	// VFCoeff weights the critic (value-function) loss.
	VFCoeff float64
	// TargetUpdateFreq is IMPACT's target-network refresh cadence in
	// policy updates (N/A for PPO).
	TargetUpdateFreq float64
	// Optimizer names the optimizer ("adam" in all paper experiments).
	Optimizer string
	// GradClip bounds the L2 norm of each submitted gradient
	// (0 disables). Not in Table III; standard practice retained to
	// keep CPU float64 training numerically tame.
	GradClip float64
}

// PPOHyper returns Table III's PPO column. continuous selects the
// MuJoCo-class batch size (4096) over the Atari-class one (256).
func PPOHyper(continuous bool) Hyper {
	h := Hyper{
		LearningRate:  0.00005,
		Gamma:         0.99,
		Lambda:        0.95,
		BatchSize:     256,
		MinibatchSize: 128,
		ClipParam:     0.3,
		KLCoeff:       0.2,
		KLTarget:      0.01,
		EntropyCoeff:  0.0,
		VFCoeff:       1.0,
		Optimizer:     "adam",
		GradClip:      10,
	}
	if continuous {
		h.BatchSize = 4096
		h.MinibatchSize = 512
	}
	return h
}

// IMPACTHyper returns Table III's IMPACT column.
func IMPACTHyper(continuous bool) Hyper {
	h := Hyper{
		LearningRate:     0.0005,
		Gamma:            0.99,
		Lambda:           0.95,
		BatchSize:        256,
		MinibatchSize:    128,
		ClipParam:        0.4,
		KLCoeff:          1.0,
		KLTarget:         0.01,
		EntropyCoeff:     0.01,
		VFCoeff:          1.0,
		TargetUpdateFreq: 1.0,
		Optimizer:        "adam",
		GradClip:         10,
	}
	if continuous {
		h.BatchSize = 4096
		h.MinibatchSize = 512
	}
	return h
}
