package core

import "stellaris/internal/obs"

// coreMetrics is the trainer's view into an obs registry. All durations
// are virtual seconds on the DES clock; Config.Obs wiring switches the
// registry's clock to the trainer's simclock so snapshots and lineage
// events carry virtual timestamps.
type coreMetrics struct {
	components   *obs.HistogramVec // des_component_seconds{component}
	roundSeconds *obs.Histogram    // des_round_seconds
	staleness    *obs.Histogram    // des_staleness
	updates      *obs.Counter      // des_updates_total
}

func newCoreMetrics(reg *obs.Registry) *coreMetrics {
	m := &coreMetrics{
		components: reg.HistogramVec("des_component_seconds",
			"per-invocation latency by Fig. 14 component (virtual seconds)",
			obs.VirtualBuckets, "component"),
		roundSeconds: reg.Histogram("des_round_seconds",
			"training round duration (virtual seconds)", obs.VirtualBuckets),
		staleness: reg.Histogram("des_staleness",
			"gradient staleness at aggregation (versions, Fig. 3b)", obs.CountBuckets),
		updates: reg.Counter("des_updates_total", "policy updates applied"),
	}
	// Pre-create the component children so exposition always lists the
	// full Fig. 14 breakdown, zeros included.
	for _, c := range BreakdownComponents {
		m.components.With(c)
	}
	return m
}

// observe records one latency-breakdown component in both the Fig. 14
// breakdown and, when instrumented, the registry histogram.
func (t *Trainer) observe(component string, d float64) {
	t.breakdown.Add(component, d)
	if t.m != nil {
		t.m.components.With(component).Observe(d)
	}
}
