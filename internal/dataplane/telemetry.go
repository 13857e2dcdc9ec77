// The engine's telemetry face: every counter the engine already keeps
// (stats.go, replication.go, scr.go) is exported through scrape-time
// collectors on a per-engine telemetry.Registry, so observability costs
// the packet loop nothing — the hot path keeps bumping the same atomics
// it always did, and aggregation happens only when something scrapes
// /metrics or takes a JSON snapshot. The only live instruments are the
// per-variable lock-wait histograms (fed from a visit's already-slow
// contended path) and the link-duration histogram (control plane only).
package dataplane

import (
	"sort"
	"strconv"

	"snap/internal/telemetry"
	"snap/internal/topo"
)

// Telemetry returns the engine's private metrics registry: engine
// counters, per-variable lock-wait histograms, replication gauges, the
// reconfiguration span log, and — when Options.TraceSampling is set —
// the sampled packet-trace ring. Serve it with telemetry.Serve, or fold
// it into a snapshot with Registry.Snapshot.
func (e *Engine) Telemetry() *telemetry.Registry { return e.tel }

// traceHop records one switch visit on a sampled packet's trace. tr is
// nil for every unsampled packet (and always, at the default
// TraceSampling of 0), so the hot-path cost of the disabled feature is
// this one branch.
func traceHop(tr *telemetry.PacketTrace, at topo.NodeID, outcome, stateVar string, egress int) {
	if tr != nil {
		tr.Hop(int(at), outcome, stateVar, egress)
	}
}

// registerMetrics wires the engine's existing atomics into scrape-time
// collectors. Called once at the end of NewEngine, after the load map is
// final (the collectors iterate it lock-free).
func (e *Engine) registerMetrics() {
	r := e.tel

	r.CounterFunc("snap_packets_total",
		"Packet copies by outcome since the engine started.",
		[]string{"outcome"}, func(emit telemetry.Emit) {
			emit([]string{"injected"}, float64(e.stats.injected.Load()))
			emit([]string{"delivered"}, float64(e.stats.delivered.Load()))
			emit([]string{"dropped"}, float64(e.stats.dropped.Load()))
		})
	r.CounterFunc("snap_hops_total",
		"Inter-switch forwarding steps.",
		nil, func(emit telemetry.Emit) {
			emit(nil, float64(e.stats.hops.Load()))
		})
	r.CounterFunc("snap_suspends_total",
		"Evaluations suspended for remote state.",
		nil, func(emit telemetry.Emit) {
			emit(nil, float64(e.stats.suspends.Load()))
		})
	r.CounterFunc("snap_lock_suspends_total",
		"Visits whose stripe-lock acquisition blocked (always 0 under the replication discipline).",
		nil, func(emit telemetry.Emit) {
			emit(nil, float64(e.stats.lockSuspends.Load()))
		})
	r.GaugeFunc("snap_epoch",
		"Configuration epoch: 0 at engine start, +1 per reconfiguration.",
		nil, func(emit telemetry.Emit) {
			emit(nil, float64(e.epoch.Load()))
		})
	r.GaugeFunc("snap_down_switches",
		"Switches currently failed (failure injection).",
		nil, func(emit telemetry.Emit) {
			n := 0
			for i := range e.down {
				if e.down[i].Load() {
					n++
				}
			}
			emit(nil, float64(n))
		})
	// Failure containment (containment.go): the self-healing loop's
	// observable face — rollbacks of failed swaps, panics converted to
	// quarantine, shed injections.
	r.CounterFunc("snap_reconfig_rollbacks_total",
		"Reconfigurations that failed mid-swap and rolled back to the prior plane (state intact, epoch unchanged).",
		nil, func(emit telemetry.Emit) {
			emit(nil, float64(e.stats.rollbacks.Load()))
		})
	r.CounterFunc("snap_contained_panics_total",
		"Panics recovered at the containment sites: switch VMs under either discipline, and the mirror drainer.",
		nil, func(emit telemetry.Emit) {
			emit(nil, float64(e.stats.containedPanics.Load()))
		})
	r.GaugeFunc("snap_quarantined_switches",
		"Switches currently under panic quarantine (dropping and counting until the next committed reconfiguration).",
		nil, func(emit telemetry.Emit) {
			n := 0
			for i := range e.quar {
				if e.quar[i].Load() {
					n++
				}
			}
			emit(nil, float64(n))
		})
	r.CounterFunc("snap_quarantine_drops_total",
		"Packet copies discarded at panic-quarantined switches (also counted in snap_packets_total{outcome=\"dropped\"}).",
		nil, func(emit telemetry.Emit) {
			emit(nil, float64(e.stats.quarantineDrops.Load()))
		})
	r.CounterFunc("snap_shed_total",
		"Injections rejected with ErrOverload at the shed watermark (never admitted).",
		nil, func(emit telemetry.Emit) {
			emit(nil, float64(e.stats.shed.Load()))
		})

	r.CounterFunc("snap_link_images_total",
		"Distinct program images resolved at plane builds, by source: reused from the cross-epoch cache or freshly linked.",
		[]string{"source"}, func(emit telemetry.Emit) {
			emit([]string{"reused"}, float64(e.linkReused.Load()))
			emit([]string{"fresh"}, float64(e.linkFresh.Load()))
		})

	// Replication backlog, both update-log consumers under one series:
	// mirror is the backup pipeline (records enqueued but not yet applied
	// to the backup tables), scr the replication workers (entries still
	// queued in the worker-pair rings). An absent consumer reads 0.
	r.GaugeFunc("snap_replica_lag",
		"Replication backlog by consumer: mirror records not yet applied to the backups, or SCR updates queued in the worker-pair rings.",
		[]string{"kind"}, func(emit telemetry.Emit) {
			enq, app := e.replicator().lag()
			emit([]string{"mirror"}, float64(enq-app))
			emit([]string{"scr"}, float64(e.plane.Load().scr.ringOccupancy()))
		})
	r.GaugeFunc("snap_mirror_queue_depth",
		"Mirror writes currently queued at primary switches, awaiting the background drain.",
		nil, func(emit telemetry.Emit) {
			emit(nil, float64(e.replicator().queueDepth()))
		})
	r.CounterFunc("snap_mirror_writes_total",
		"Mirror-replication pipeline writes by stage (lost = discarded by switch failures, the bounded failover loss).",
		[]string{"stage"}, func(emit telemetry.Emit) {
			enq, app := e.replicator().lag()
			emit([]string{"enqueued"}, float64(enq))
			emit([]string{"applied"}, float64(app))
			emit([]string{"lost"}, float64(e.repLost.Load()))
		})
	r.GaugeFunc("snap_scr_ring_occupancy",
		"State updates currently queued in the SCR worker-pair rings (0 under the lock discipline).",
		nil, func(emit telemetry.Emit) {
			emit(nil, float64(e.plane.Load().scr.ringOccupancy()))
		})
	r.CounterFunc("snap_scr_updates_total",
		"SCR update-log entries by stage: published counts each logged write once, applied counts each remote replica application (~published x (workers-1)).",
		[]string{"stage"}, func(emit telemetry.Emit) {
			pub, app := e.plane.Load().scr.updateCounts()
			emit([]string{"published"}, float64(pub))
			emit([]string{"applied"}, float64(app))
		})

	// Per-switch load. The label set is fixed at engine construction
	// (the switch set never changes across epochs), so the ids and their
	// label strings are resolved once here, not per scrape.
	ids := make([]topo.NodeID, 0, len(e.load))
	for id := range e.load {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	names := make([]string, len(ids))
	for i, id := range ids {
		names[i] = strconv.Itoa(int(id))
	}
	r.CounterFunc("snap_switch_load_total",
		"Per-switch work: packet copies processed, state suspensions, copies forwarded onward.",
		[]string{"switch", "kind"}, func(emit telemetry.Emit) {
			for i, id := range ids {
				c := e.load[id]
				emit([]string{names[i], "processed"}, float64(c.processed.Load()))
				emit([]string{names[i], "suspends"}, float64(c.suspends.Load()))
				emit([]string{names[i], "forwarded"}, float64(c.forwarded.Load()))
			}
		})

	r.CounterFunc("snap_traces_sampled_total",
		"Sampled packet traces started (0 unless Options.TraceSampling is set).",
		nil, func(emit telemetry.Emit) {
			emit(nil, float64(e.traces.Sampled()))
		})
}
