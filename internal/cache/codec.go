package cache

import "stellaris/internal/obs/lineage"

// The cache stores three structured payload families, mirroring the
// paper's Redis usage: trajectory sample batches (actors → learners),
// gradients (learners → parameter function), and policy weight vectors
// (parameter function → everyone). All of them travel in the binary
// SLB1 format of bincodec.go, which plays the role Pickle plays in the
// paper's implementation; a payload without the SLB1 magic is rejected
// exactly as a corrupt one is.

// WeightsMsg is a versioned policy weight vector.
type WeightsMsg struct {
	Version int
	Weights []float64
	// Trace is the causal-tracing context (see internal/obs/lineage). It
	// rides in the payload's optional TLV section, so an untraced message
	// spends no bytes on it.
	Trace lineage.Meta
}

// GradMsg is one learner function's output.
type GradMsg struct {
	LearnerID int
	// BornVersion is the policy version the learner pulled before
	// computing; staleness at aggregation is current - BornVersion.
	BornVersion int
	Grad        []float64
	Samples     int
	// MeanRatio and MinRatio summarize the learner's importance ratios
	// for the truncation tracker (Eq. 2's group view).
	MeanRatio float64
	MinRatio  float64
	KL        float64
	Entropy   float64
	// Truncated counts samples whose importance ratio hit the Eq. 2
	// truncation cap during this gradient's computation — carried so the
	// parameter side can attribute truncated-by-IS lineage hops.
	Truncated int
	// Trace is the causal-tracing context (see WeightsMsg.Trace).
	Trace lineage.Meta
}
