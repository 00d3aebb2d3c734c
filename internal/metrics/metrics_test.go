package metrics

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func sampleRecorder() *Recorder {
	r := NewRecorder()
	for i := 0; i < 5; i++ {
		r.Add(Round{
			Round: i, DurationSec: 1.5, Learners: 2, Episodes: 10 * (i + 1),
			Reward: float64(10 * i), Staleness: 0.5, CostUSD: float64(i) * 0.01,
			WallSec: float64(i) * 1.5,
		})
	}
	return r
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleRecorder().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 6 {
		t.Fatalf("CSV has %d lines", len(lines))
	}
	if lines[0] != "round,duration_s,learners,episodes,reward,staleness,cost_usd,wall_s" {
		t.Fatalf("header %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "0,1.5000,2,10,0.0000,0.5000,") {
		t.Fatalf("row 0: %q", lines[1])
	}
}

func TestFinalReward(t *testing.T) {
	r := sampleRecorder() // rewards 0,10,20,30,40
	if got := r.FinalReward(2); got != 35 {
		t.Fatalf("FinalReward(2) = %v", got)
	}
	if got := r.FinalReward(0); got != 20 {
		t.Fatalf("FinalReward(0) = %v (all rows)", got)
	}
	if got := r.FinalReward(100); got != 20 {
		t.Fatalf("oversized window = %v", got)
	}
	if NewRecorder().FinalReward(3) != 0 {
		t.Fatal("empty recorder FinalReward != 0")
	}
}

func TestHistogramPDF(t *testing.T) {
	h := NewHistogram()
	h.ObserveAll([]int{0, 0, 1, 2, 2, 2})
	values, probs := h.PDF()
	if len(values) != 3 || values[0] != 0 || values[2] != 2 {
		t.Fatalf("values %v", values)
	}
	var sum float64
	for _, p := range probs {
		sum += p
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("PDF sums to %v", sum)
	}
	if probs[2] != 0.5 {
		t.Fatalf("p(2) = %v", probs[2])
	}
	if h.Total() != 6 {
		t.Fatalf("total %d", h.Total())
	}
	if got := h.Mean(); math.Abs(got-7.0/6) > 1e-12 {
		t.Fatalf("mean %v", got)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 100; i++ {
		h.Observe(i)
	}
	if q := h.Quantile(0.5); q != 50 {
		t.Fatalf("median %d", q)
	}
	if q := h.Quantile(0.95); q != 95 {
		t.Fatalf("p95 %d", q)
	}
	if q := h.Quantile(0); q != 1 {
		t.Fatalf("p0 %d", q)
	}
	if NewHistogram().Quantile(0.5) != 0 {
		t.Fatal("empty quantile nonzero")
	}
}

func TestBreakdownShares(t *testing.T) {
	b := NewBreakdown("a", "b", "c")
	b.Add("a", 1)
	b.Add("b", 3)
	b.Add("a", 1) // accumulates
	shares := b.Shares()
	if shares[0] != 0.4 || shares[1] != 0.6 || shares[2] != 0 {
		t.Fatalf("shares %v", shares)
	}
	if b.Total("a") != 2 {
		t.Fatalf("Total(a) = %v", b.Total("a"))
	}
	empty := NewBreakdown("x")
	if empty.Shares()[0] != 0 {
		t.Fatal("empty breakdown share nonzero")
	}
}

func TestMeanStd(t *testing.T) {
	mean, std := MeanStd([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if mean != 5 || math.Abs(std-2) > 1e-12 {
		t.Fatalf("MeanStd = %v, %v", mean, std)
	}
	if m, s := MeanStd(nil); m != 0 || s != 0 {
		t.Fatal("empty MeanStd nonzero")
	}
}

func TestPlotRendersSeries(t *testing.T) {
	var buf bytes.Buffer
	Plot(&buf, "test chart", 6, 30,
		Series{Name: "up", Points: []float64{0, 1, 2, 3, 4}},
		Series{Name: "down", Points: []float64{4, 3, 2, 1, 0}},
	)
	out := buf.String()
	if !strings.Contains(out, "test chart") {
		t.Fatal("title missing")
	}
	if !strings.Contains(out, "1=up") || !strings.Contains(out, "2=down") {
		t.Fatalf("legend missing:\n%s", out)
	}
	if !strings.Contains(out, "4.0") || !strings.Contains(out, "0.0") {
		t.Fatalf("axis labels missing:\n%s", out)
	}
	if !strings.Contains(out, "1") || !strings.Contains(out, "2") {
		t.Fatal("markers missing")
	}
}

func TestPlotEmptyAndDegenerate(t *testing.T) {
	var buf bytes.Buffer
	Plot(&buf, "empty", 6, 30)
	if !strings.Contains(buf.String(), "no data") {
		t.Fatal("empty plot not handled")
	}
	buf.Reset()
	// Constant series must not divide by zero.
	Plot(&buf, "flat", 6, 30, Series{Name: "c", Points: []float64{5, 5, 5}})
	if !strings.Contains(buf.String(), "flat") {
		t.Fatal("flat series not rendered")
	}
	buf.Reset()
	// NaN points are skipped, not crashed on.
	Plot(&buf, "nan", 6, 30, Series{Name: "n", Points: []float64{1, math.NaN(), 3}})
	if !strings.Contains(buf.String(), "nan") {
		t.Fatal("NaN series not rendered")
	}
}

func TestPlotClampsTinyDims(t *testing.T) {
	var buf bytes.Buffer
	Plot(&buf, "tiny", 1, 2, Series{Name: "s", Points: []float64{1, 2}})
	if buf.Len() == 0 {
		t.Fatal("tiny plot empty")
	}
}
