// Package metrics records training telemetry in the schema of the
// paper's artifact ("training round index, round duration, number of
// learner functions invoked per training iteration, episodes executed,
// evaluation rewards, staleness, and training cost" — Appendix AD), plus
// the histogram and latency-breakdown utilities the figures need.
package metrics

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
)

// Round is one row of training output.
type Round struct {
	// Round is the policy-update index.
	Round int
	// DurationSec is virtual seconds spent in the round.
	DurationSec float64
	// Learners is the number of learner-function gradients aggregated.
	Learners int
	// Episodes is the cumulative count of completed episodes.
	Episodes int
	// Reward is the mean episodic return over the evaluation window.
	Reward float64
	// Staleness is the mean staleness of the aggregated group.
	Staleness float64
	// CostUSD is the cumulative training cost.
	CostUSD float64
	// WallSec is the cumulative virtual time.
	WallSec float64
}

// Recorder accumulates round rows.
type Recorder struct {
	Rows []Round
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Add appends one round row.
func (r *Recorder) Add(row Round) { r.Rows = append(r.Rows, row) }

// WriteCSV emits the artifact schema.
func (r *Recorder) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"round", "duration_s", "learners", "episodes", "reward", "staleness", "cost_usd", "wall_s",
	}); err != nil {
		return err
	}
	for _, row := range r.Rows {
		rec := []string{
			strconv.Itoa(row.Round),
			fmt.Sprintf("%.4f", row.DurationSec),
			strconv.Itoa(row.Learners),
			strconv.Itoa(row.Episodes),
			fmt.Sprintf("%.4f", row.Reward),
			fmt.Sprintf("%.4f", row.Staleness),
			fmt.Sprintf("%.6f", row.CostUSD),
			fmt.Sprintf("%.4f", row.WallSec),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// FinalReward is the mean reward over the last window rows (the paper's
// "final reward" training-quality metric).
func (r *Recorder) FinalReward(window int) float64 {
	n := len(r.Rows)
	if n == 0 {
		return 0
	}
	if window <= 0 || window > n {
		window = n
	}
	var s float64
	for _, row := range r.Rows[n-window:] {
		s += row.Reward
	}
	return s / float64(window)
}

// Histogram is a simple fixed-bin histogram for the staleness PDFs of
// Fig. 3(b).
type Histogram struct {
	counts map[int]int
	total  int
}

// NewHistogram returns an empty histogram over integer values.
func NewHistogram() *Histogram { return &Histogram{counts: make(map[int]int)} }

// Observe adds one value.
func (h *Histogram) Observe(v int) {
	h.counts[v]++
	h.total++
}

// ObserveAll adds each value.
func (h *Histogram) ObserveAll(vs []int) {
	for _, v := range vs {
		h.Observe(v)
	}
}

// Total returns the observation count.
func (h *Histogram) Total() int { return h.total } //lint:allow reach inspection accessor: internal/core's tests read it

// PDF returns (value, probability) pairs sorted by value.
func (h *Histogram) PDF() (values []int, probs []float64) {
	for v := range h.counts {
		values = append(values, v)
	}
	sort.Ints(values)
	probs = make([]float64, len(values))
	for i, v := range values {
		probs[i] = float64(h.counts[v]) / float64(h.total)
	}
	return values, probs
}

// Mean returns the mean observed value.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	var s float64
	for v, c := range h.counts {
		s += float64(v * c)
	}
	return s / float64(h.total)
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of the observations.
func (h *Histogram) Quantile(q float64) int {
	if h.total == 0 {
		return 0
	}
	values, _ := h.PDF()
	target := int(math.Ceil(q * float64(h.total)))
	if target < 1 {
		target = 1
	}
	cum := 0
	for _, v := range values {
		cum += h.counts[v]
		if cum >= target {
			return v
		}
	}
	return values[len(values)-1]
}

// Breakdown accumulates per-component latency for Fig. 14.
type Breakdown struct {
	Components []string
	totals     map[string]float64
}

// NewBreakdown returns a breakdown over the named components, reported
// in the given order.
func NewBreakdown(components ...string) *Breakdown {
	return &Breakdown{Components: components, totals: make(map[string]float64)}
}

// Add accrues d seconds to component.
func (b *Breakdown) Add(component string, d float64) { b.totals[component] += d }

// Total returns the accumulated seconds for component.
func (b *Breakdown) Total(component string) float64 { return b.totals[component] }

// Shares returns each component's fraction of the grand total, in
// Components order.
func (b *Breakdown) Shares() []float64 {
	var grand float64
	for _, c := range b.Components {
		grand += b.totals[c]
	}
	out := make([]float64, len(b.Components))
	if grand == 0 {
		return out
	}
	for i, c := range b.Components {
		out[i] = b.totals[c] / grand
	}
	return out
}

// MeanStd returns the mean and population standard deviation of xs.
func MeanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		d := x - mean
		std += d * d
	}
	return mean, math.Sqrt(std / float64(len(xs)))
}
