package live

// Causal-tracing and flight-recorder glue for the live pipeline. The
// lineage store itself lives in internal/obs/lineage; this file holds
// the run-level helpers the workers and supervisor share. All helpers
// are no-ops when tracing is off (r.lin == nil).

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"stellaris/internal/obs/lineage"
)

// flightCacheKey is the reserved sys/ key the newest flight dump is
// mirrored under, next to the checkpoint mirror (ckpt.CacheKey) — so a
// postmortem survives the loss of the local disk as long as the cache
// does.
const flightCacheKey = "sys/flight/latest"

// workerName renders a worker's lineage identity: role, id, and
// supervisor incarnation ("actor/0#2" = actor 0's second restart).
func workerName(role string, id, incarnation int) string {
	return fmt.Sprintf("%s/%d#%d", role, id, incarnation)
}

// flightDump snapshots the flight-recorder ring to
// FlightDir/flight-<seq>-<reason>.json and mirrors the bytes under
// flightCacheKey. Dump failures are deliberately swallowed: a
// postmortem must never turn a recoverable crash into a fatal one. The
// cache mirror is skipped once the run is stopping — the cache may be
// exactly what died.
func (r *run) flightDump(reason string) {
	if r.lin == nil {
		return
	}
	mirror := !r.stop.Load()
	var buf bytes.Buffer
	if err := r.lin.WriteFlightDump(&buf, reason); err != nil {
		return
	}
	r.flightDumps.Add(1)
	if r.m != nil {
		r.m.flightDumps.With(reason).Inc()
	}
	if dir := r.opt.FlightDir; dir != "" {
		if err := os.MkdirAll(dir, 0o755); err == nil {
			name := filepath.Join(dir, fmt.Sprintf("flight-%03d-%s.json", r.flightSeq.Add(1), reason))
			_ = os.WriteFile(name, buf.Bytes(), 0o644)
		}
	}
	if mirror {
		_ = r.paramCli.Put(flightCacheKey, buf.Bytes())
	}
}

// recordWeightsProduced marks a new weight version's birth. group lists
// the trace IDs of the gradients aggregated into it (nil for the
// initial publish), recorded first so the aggregation hops precede the
// produced hop in every reconstruction.
func (r *run) recordWeightsProduced(version int, group []string) {
	if r.lin == nil {
		return
	}
	wid := lineage.WeightsID(version)
	for _, g := range group {
		if g == "" {
			// Entries restored from a checkpoint carry no trace: their
			// pre-crash lineage lives in the previous run's flight dump.
			continue
		}
		r.lin.Record(lineage.Event{
			Trace: g, Kind: lineage.KindGradient, Hop: lineage.HopAggregated,
			Actor: "param", Ref: wid,
		})
	}
	r.lin.Record(lineage.Event{
		Trace: wid, Kind: lineage.KindWeights, Hop: lineage.HopProduced, Actor: "param",
	})
}

// recordGradProduced marks a gradient's birth (parented to the weights
// version it was computed against) plus, when the Eq. 2 cap fired, its
// truncated-by-IS hop.
func (r *run) recordGradProduced(gkey, actor string, bornVersion, truncated int) {
	if r.lin == nil {
		return
	}
	r.lin.Record(lineage.Event{
		Trace: gkey, Kind: lineage.KindGradient, Hop: lineage.HopProduced,
		Actor: actor, Ref: lineage.WeightsID(bornVersion),
	})
	if truncated > 0 {
		r.lin.Record(lineage.Event{
			Trace: gkey, Kind: lineage.KindGradient, Hop: lineage.HopTruncated,
			Actor: actor, Detail: fmt.Sprintf("%d importance ratios capped", truncated),
		})
	}
}

// recordConsumed marks a trajectory folded into the batch behind
// gradient gkey.
func (r *run) recordConsumed(trajKey, gkey, actor string) {
	if r.lin == nil {
		return
	}
	r.lin.Record(lineage.Event{
		Trace: trajKey, Kind: lineage.KindTrajectory, Hop: lineage.HopConsumed,
		Actor: actor, Ref: gkey,
	})
}
