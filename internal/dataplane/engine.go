// The data-plane runtime: Engine runs batches or streams of packets
// through the per-switch NetASM VMs on a pool of Options.Workers workers.
//
//   - Admission: an injection passes the gate (epoch swaps and quiescent
//     snapshots) and the Window (the bound on in-flight injections, and so
//     on the queue feeding the pool), then goes to a worker — the calling
//     goroutine itself when Workers is 1, otherwise whichever pool
//     goroutine takes it off the shared job queue.
//   - The walk: the worker runs the injection to completion, one packet
//     copy at a time off a worker-local queue that multicast extras join
//     too: execute the xFDD at a switch, suspend toward the owner of the
//     state it needs (§4.5), resume there, until every copy is delivered
//     or dropped. No copy changes worker, so one worker retires the whole
//     injection.
//   - The discipline: under striped locks (the default) every worker
//     visits the one shared set of switch VMs, with per-variable stripe
//     locks (state.Stripes) wrapping each visit. Placement puts each
//     variable — and each shard of a sharded variable, since shards are
//     ordinary variables — on exactly one switch, so lock sets of
//     different switches are disjoint: packets of disjoint flows proceed
//     in parallel, and packets contending for the same variable serialize,
//     preserving per-visit atomicity. Under state-compute replication
//     (scr.go) each worker visits its own replica of the VMs with no
//     locks, draining its peers' update logs before each injection and
//     publishing its own after.
//
// Equivalence with the specification: every packet copy performs the
// switch visits and state operations that the one-big-switch semantics
// (internal/semantics) prescribes; only the interleaving across packets
// differs. With one packet in flight at a time the engine is lockstep-exact
// for any policy, and for programs whose state updates commute (counters,
// monotone flags) the final global state of a concurrent run equals that
// of any sequential order, which the engine tests assert.
//
// Reconfiguration: the compiled configuration, the switch VMs and their
// lock sets live behind one atomically-swapped plane pointer. ApplyConfig
// installs a recompiled rules.Config onto the live engine in an epoch-based
// swap — pause admission, drain in-flight injections to quiescence,
// migrate the state tables to their new owner switches, publish the new
// plane, resume — so long-running InjectStream callers continue across the
// swap and no packet or state entry is lost. internal/ctrl drives this
// from observed traffic drift.
package dataplane

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"snap/internal/faultpoint"
	"snap/internal/netasm"
	"snap/internal/pkt"
	"snap/internal/rules"
	"snap/internal/state"
	"snap/internal/telemetry"
	"snap/internal/topo"
	"snap/internal/traffic"
)

// Ingress is one packet entering the network at an OBS port.
type Ingress struct {
	Port   int
	Packet pkt.Packet
}

// Options configures an Engine. The zero value picks sensible defaults.
type Options struct {
	// Workers is the size of the worker pool: how many injections run at
	// once, each to completion on one worker. 1 runs every injection on
	// the calling goroutine and starts no goroutine (the sequential
	// baseline); 0 defaults to GOMAXPROCS.
	Workers int
	// Window bounds how many injected packets are in flight at once: the
	// depth of the admission queue feeding the worker pool. 0 → 256.
	Window int
	// MaxHops guards against forwarding loops. 0 → 16 × (switches + 2).
	MaxHops int
	// Stripes is the striped-lock pool size. 0 → state.DefaultStripes.
	Stripes int
	// StateReplication requests the state-compute replication discipline
	// (scr.go): per-worker state replicas and update-log merge instead of
	// striped locks. The request is honored per plane, at link time — a
	// plane that classifies replication-unsafe (wide-index writes, mixed
	// set/delta variables) falls back to locks, with the reasons available
	// from Engine.ReplicationFallback. Mirror replicas in the configuration
	// run under either discipline: both feed them the same update log.
	StateReplication bool
	// ReplicationRing overrides the capacity of each worker-pair update
	// ring (0 → 1024). Small values force publish backpressure and exist
	// for tests; leave 0 in production.
	ReplicationRing int
	// TraceSampling enables sampled packet traces: 1 in TraceSampling
	// injections records its hop-by-hop path, state suspensions and
	// inject-to-retirement latency into a bounded ring, readable from
	// Telemetry().Traces (and the /debug/vars snapshot). 0 — the default —
	// disables tracing entirely; the hot path then pays one nil check.
	TraceSampling int
	// TraceBuffer is the trace ring capacity: how many completed sampled
	// traces are retained, oldest evicted first (0 → 256).
	TraceBuffer int
	// ShedWatermark turns on overload shedding: an injection arriving
	// while ShedWatermark packets are already in flight is rejected with
	// ErrOverload (and counted in Stats.Shed) instead of blocking on the
	// admission window. Must be ≤ Window to have any effect beyond the
	// window's own blocking. 0 — the default — disables shedding and
	// keeps the historical unbounded-blocking admission.
	ShedWatermark int
}

func (o Options) withDefaults(cfg *rules.Config) Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Window <= 0 {
		o.Window = 256
	}
	if o.MaxHops <= 0 {
		o.MaxHops = 16 * (cfg.Topo.Switches + 2)
	}
	if o.ReplicationRing <= 0 {
		o.ReplicationRing = 1024
	}
	return o
}

// job is one admitted injection: the packet at its ingress switch, plus
// what retiring it must notify.
type job struct {
	at topo.NodeID
	sp netasm.SimPacket
	// out collects the injection's deliveries (InjectBatch); nil in
	// stream mode, where deliveries are only counted.
	out *[]Delivery
	wg  *sync.WaitGroup
	// tr is the sampled packet trace, nil for the (default) unsampled case.
	tr *telemetry.PacketTrace
}

// visit is one packet copy queued on a worker's walk.
type visit struct {
	at   topo.NodeID
	sp   netasm.SimPacket
	hops int
}

// worker is one member of the engine's pool. Its queue and result buffer
// are reused across injections, which keeps the steady-state packet loop
// allocation-free. kick and sync reach a pool goroutine outside the job
// stream under the replication discipline (scr.go): kick asks it to drain
// its replica's inbound rings for a backpressured publisher, sync is the
// control plane's acknowledged drain (reconcile).
type worker struct {
	id      int
	eng     *Engine
	queue   []visit
	results []netasm.Result
	kick    chan struct{}
	sync    chan chan struct{}
}

// loop is a pool goroutine: it serves jobs until Close closes the queue.
// Under replication it is the sole consumer of its replica's inbound
// rings — packet processing, publisher kicks and control-plane drain
// requests all converge here, which keeps the SPSC ring contract honest.
func (w *worker) loop(jobs <-chan job) {
	defer w.eng.wg.Done()
	for {
		select {
		case j, ok := <-jobs:
			if !ok {
				return
			}
			w.run(&j)
		case <-w.kick:
			w.drain()
		case ack := <-w.sync:
			w.drain()
			ack <- struct{}{}
		}
	}
}

// drain applies the peers' queued updates to this worker's replica of the
// current plane; a no-op under the lock discipline.
func (w *worker) drain() {
	if s := w.eng.plane.Load().scr; s != nil {
		s.replicas[w.id].drain()
	}
}

// run executes one injection to completion and retires it. The deferred
// guard is the last-resort containment: VM panics are already converted
// inside each visit (runContained), so a panic unwinding to here is a bug
// in the walk or merge machinery itself — the process survives, the
// engine poisons with the captured stack, and the injection still retires
// so no caller hangs.
//
// The plane pointer is loaded once per injection: ApplyConfig swaps it
// only while the gate holds the engine quiescent, so no injection ever
// spans two epochs.
func (w *worker) run(j *job) {
	e := w.eng
	defer e.retire(j)
	defer w.guard()
	pl := e.plane.Load()
	if pl.scr == nil {
		w.walk(pl, pl.switches, j)
		return
	}
	r := pl.scr.replicas[w.id]
	r.drain()
	w.walk(pl, r.switches, j)
	r.publish()
}

func (w *worker) guard() {
	if v := recover(); v != nil {
		w.eng.fail(fmt.Errorf("dataplane: panic on worker %d: %v\n%s", w.id, v, debug.Stack()))
	}
}

// walk runs one injected packet and all its copies to quiescence against
// the given VM set, breadth-first off the worker-local queue.
func (w *worker) walk(pl *plane, switches map[topo.NodeID]*netasm.Switch, j *job) {
	e := w.eng
	q := append(w.queue[:0], visit{at: j.at, sp: j.sp})
	defer func() { w.queue = q[:0] }()
	for qi := 0; qi < len(q) && !e.failed.Load(); qi++ {
		// cur stays valid until the first append below, the last use.
		cur := &q[qi]
		at, hops, hdr := cur.at, cur.hops, &cur.sp.Hdr
		switch {
		case e.down[at].Load():
			// The switch died with this copy in flight toward it: the copy
			// is lost. Observe the drop so the empirical matrix still
			// reflects the offered load.
			e.drop(at, j.tr, hdr.OBSIn, hdr.OBSOut)
			continue
		case e.quarantined(at):
			// A contained panic poisoned this switch's VM; its copies
			// drop-and-count until a reconfiguration replaces it.
			e.dropQuarantined(at, j.tr, hdr.OBSIn, hdr.OBSOut)
			continue
		case hops > e.opts.MaxHops:
			e.fail(fmt.Errorf("dataplane: hop limit exceeded at switch %d (forwarding loop?)", at))
			return
		}
		results, err := w.visit(pl, switches[at], at, cur.sp)
		if err != nil {
			if e.containVMError(at, err) {
				e.dropQuarantined(at, j.tr, hdr.OBSIn, hdr.OBSOut)
				continue
			}
			e.fail(err)
			return
		}
		for i := range results {
			r := &results[i]
			in := r.Packet.Hdr.OBSIn
			var target topo.NodeID
			outcome, sv, egress := "forward", "", r.Packet.Hdr.OBSOut
			switch r.Outcome {
			case netasm.Dropped:
				e.drop(at, j.tr, in, -1)
				continue
			case netasm.Delivered:
				e.deliver(j, at, in, egress, &r.Packet.Pkt)
				continue
			case netasm.NeedState:
				e.stats.suspends.Add(1)
				e.load[at].suspends.Add(1)
				t, ok := pl.stateTarget(r)
				if !ok {
					e.fail(fmt.Errorf("dataplane: no owner for state of packet at switch %d", at))
					continue
				}
				if t == at {
					e.fail(fmt.Errorf("dataplane: suspended for local state at switch %d", at))
					continue
				}
				target = t
				outcome, sv, egress = "suspend", r.StateVar, -1
			case netasm.ToEgress:
				eg, ok := pl.cfg.Topo.PortByID(egress)
				if !ok {
					// Outport set to a value that is not an OBS port: the
					// packet leaves the system nowhere.
					e.drop(at, j.tr, in, -1)
					continue
				}
				if eg.Switch == at {
					e.deliver(j, at, in, eg.ID, &r.Packet.Pkt)
					continue
				}
				target = eg.Switch
			}
			next, li, err := nextHopLink(pl.cfg, at, r.Packet, target)
			if err != nil {
				e.fail(err)
				continue
			}
			if e.linkDead(pl.cfg.Topo.Links[li]) {
				e.stats.dropped.Add(1)
				e.observeDrop(at, in, r.Packet.Hdr.OBSOut)
				traceHop(j.tr, at, "drop", sv, egress)
				continue
			}
			e.stats.hops.Add(1)
			e.load[at].forwarded.Add(1)
			traceHop(j.tr, at, outcome, sv, egress)
			q = append(q, visit{at: next, sp: r.Packet, hops: hops + 1})
		}
	}
}

// visit executes one packet copy at one switch VM. Under the lock
// discipline the switch's stripe lock set wraps the execution; the
// uncontended path is a TryLock (one CAS per stripe, same as Lock), and
// only a blocked acquisition pays for the clock reads and the per-variable
// contention accounting. Replication-mode planes carry no lock sets.
func (w *worker) visit(pl *plane, sw *netasm.Switch, at topo.NodeID, sp netasm.SimPacket) ([]netasm.Result, error) {
	e := w.eng
	ls := pl.locks[at]
	if !ls.Empty() && !ls.TryLock() {
		t0 := time.Now()
		ls.Lock()
		wait := int64(time.Since(t0))
		e.stats.lockSuspends.Add(1)
		e.stats.lockWaitNs.Add(wait)
		for _, vid := range pl.lockVars[at] {
			pl.lockSusp[vid].Add(1)
			pl.lockWait[vid].Add(wait)
			pl.lockHist[vid].Observe(wait)
		}
	}
	results, err := runContained(sw, at, w.results[:0], sp)
	w.results = results
	if !ls.Empty() {
		ls.Unlock()
	}
	e.load[at].processed.Add(1)
	return results, err
}

// drop accounts one discarded copy: the stats counter, the observed matrix
// (keyed under the intended egress out, or -1) and the sampled trace.
func (e *Engine) drop(at topo.NodeID, tr *telemetry.PacketTrace, in, out int) {
	e.stats.dropped.Add(1)
	e.observeDrop(at, in, out)
	traceHop(tr, at, "drop", "", -1)
}

// deliver accounts one copy exiting at OBS port `port`, collecting it when
// the injection was admitted in batch mode.
func (e *Engine) deliver(j *job, at topo.NodeID, in, port int, p *pkt.Packet) {
	e.stats.delivered.Add(1)
	e.observe(at, in, port)
	if j.out != nil {
		*j.out = appendDelivery(*j.out, Delivery{Port: port, Packet: *p})
	}
	traceHop(j.tr, at, "deliver", "", port)
}

// retire completes an injection: commit its trace, release its window
// slot and gate hold, and notify the waiter.
func (e *Engine) retire(j *job) {
	if j.tr != nil {
		j.tr.Finish()
	}
	<-e.window
	e.gate.leave()
	j.wg.Done()
}

// gate is the engine's admission barrier, the mechanism behind quiescent
// snapshots and epoch-based reconfiguration. Every injection holds an
// enter/leave pair for its whole lifetime (admission through retirement);
// pause blocks new admissions and waits for the in-flight count to drain
// to zero, so between pause and resume the workers are idle and the state
// tables are frozen.
type gate struct {
	mu       sync.Mutex
	cond     *sync.Cond
	paused   bool
	inflight int
}

func newGate() *gate {
	g := &gate{}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// enter admits one injection, blocking while the gate is paused.
func (g *gate) enter() {
	g.mu.Lock()
	for g.paused {
		g.cond.Wait()
	}
	g.inflight++
	g.mu.Unlock()
}

// leave retires one injection; the last one out wakes any pauser.
func (g *gate) leave() {
	g.mu.Lock()
	g.inflight--
	if g.inflight == 0 {
		g.cond.Broadcast()
	}
	g.mu.Unlock()
}

// pause stops admission and returns once every in-flight injection has
// completed. Concurrent pausers serialize; resume reopens the gate.
func (g *gate) pause() {
	g.mu.Lock()
	for g.paused {
		g.cond.Wait()
	}
	g.paused = true
	for g.inflight > 0 {
		g.cond.Wait()
	}
	g.mu.Unlock()
}

func (g *gate) resume() {
	g.mu.Lock()
	g.paused = false
	g.cond.Broadcast()
	g.mu.Unlock()
}

// plane is the swappable half of the engine: the compiled configuration,
// the per-switch VMs holding the state tables, and their lock sets.
// Workers load it once per injection through an atomic pointer;
// ApplyConfig publishes a replacement only while the gate holds the engine
// quiescent, so no packet ever sees a torn configuration.
type plane struct {
	cfg      *rules.Config
	switches map[topo.NodeID]*netasm.Switch
	locks    map[topo.NodeID]state.LockSet
	// owners is the dense state-owner lookup: variable id (in cfg's
	// VarSpace) → owning switch. placed marks ids that have an owner.
	// Suspended packets carry variable ids, so the per-hop owner lookup is
	// an array index; the string Placement map remains authoritative for
	// the control plane and for results that predate the space (-1 ids).
	owners []topo.NodeID
	placed []bool

	// lockHist holds the per-variable lock-wait histogram handles
	// (ModeLocks only), indexed like lockSusp/lockWait; resolved at plane
	// build so the contended path observes without any registry lookup.
	lockHist []*telemetry.Histogram

	// mode is the concurrency discipline this plane runs (scr.go); scr is
	// its per-worker replica set, nil under ModeLocks. diags are the
	// plane's link-time diagnostics; repFallback records why a requested
	// replication mode was refused (empty otherwise).
	mode        ExecMode
	scr         *scrState
	diags       []string
	repFallback []string

	// Per-variable lock-contention attribution (ModeLocks only): a visit
	// whose TryLock fails charges the blocked acquisition and its wait to
	// every variable of the switch's lock set — stripe granularity cannot
	// split blame within a set, but placement keeps sets small and
	// disjoint. Indexed by VarSpace id; lockVars is switch → owned var ids.
	lockSusp []atomic.Int64
	lockWait []atomic.Int64
	lockVars map[topo.NodeID][]int32
}

// seedVar re-seats one variable's entries on its owner switch — on every
// worker's replica of it under replication mode, so all copies start the
// epoch converged.
func (pl *plane) seedVar(global *state.Store, v string, owner topo.NodeID) {
	if pl.scr != nil {
		for _, r := range pl.scr.replicas {
			r.switches[owner].SeedVar(global, v)
		}
		return
	}
	pl.switches[owner].SeedVar(global, v)
}

// stateTarget resolves the switch a suspended packet must reach, by dense
// id when the result carries one and by name otherwise.
func (pl *plane) stateTarget(r *netasm.Result) (topo.NodeID, bool) {
	if id := r.StateVarID; id >= 0 && int(id) < len(pl.owners) && pl.placed[id] {
		return pl.owners[id], true
	}
	return stateTarget(pl.cfg, r)
}

// StateRewrite transforms the global state store during ApplyConfig, after
// extraction from the old switches and before re-seating on the new owners.
// The controller uses it to fold shard variables (shard.Merge) when the new
// configuration no longer knows them; nil means migrate entries unchanged.
type StateRewrite func(*state.Store) (*state.Store, error)

// Engine is the data-plane runtime.
type Engine struct {
	opts    Options
	plane   atomic.Pointer[plane]
	stripes *state.Stripes
	epoch   atomic.Int64
	load    map[topo.NodeID]*switchCounters
	window  chan struct{} // admission control
	stats   counters

	// The worker pool: Options.Workers workers, each running whole
	// injections. With one worker the injecting goroutine drives
	// workers[0] directly and jobs is nil; otherwise every worker has a
	// goroutine (tracked by wg) serving the shared jobs queue.
	workers []*worker
	jobs    chan job
	wg      sync.WaitGroup

	// Failure injection (failure.go): down switches drop every copy
	// reaching them, dead links drop copies sent across them. The switch
	// count is fixed for the engine's lifetime, so down is indexed by
	// NodeID. quar (containment.go) is the panic-quarantine flag per
	// switch: a contained VM panic marks its switch here, and copies
	// reaching it drop-and-count until a committed reconfiguration
	// replaces the VM.
	down      []atomic.Bool
	quar      []atomic.Bool
	linkMu    sync.Mutex // serializes FailLink writers
	deadLinks atomic.Pointer[map[[2]topo.NodeID]bool]

	// Asynchronous state replication (replication.go); nil when the
	// configuration carries no replicas. repMu guards the pointer: apply
	// swaps it (under the gate, after a flush) while FailSwitch and the
	// stats accessors may fire from other goroutines at any time. repLost
	// survives replicator swaps: it counts mirror writes discarded by
	// switch failures (the replica-lag loss).
	repMu   sync.Mutex
	rep     *replicator
	repLost atomic.Int64

	// Observed per-(ingress, egress)-pair delivery counts, the engine's
	// empirical traffic matrix (ObservedMatrix), sharded per delivery
	// switch so the hot-path write contends only with deliveries at the
	// same switch (mirroring the per-switch load counters).
	obs map[topo.NodeID]*obsShard

	// Lock-contention history carried across plane epochs: apply() folds
	// the outgoing plane's per-variable counters in here so
	// LockContention survives reconfiguration.
	contMu   sync.Mutex
	contHist map[string]VarContention

	// Cross-epoch link cache, the data-plane half of delta compilation: a
	// switch whose program pointer, ownership set and variable-name space
	// survive a reconfiguration reuses its linked image at the epoch gate,
	// so a hot swap re-links only the dirty switches' programs. The cache
	// resets when the variable-name space changes (linked images bake in
	// VarSpace ids, which are valid across epochs only for an identical
	// name set). Mutated only under the gate (buildPlane callers); the
	// counters are atomics so LinkStats can be read concurrently.
	linkSig    string
	linkCache  map[linkKey]*netasm.Linked
	linkReused atomic.Int64
	linkFresh  atomic.Int64

	// Telemetry (telemetry.go): tel is the engine's private registry —
	// almost entirely scrape-time collectors over the atomics above, so
	// the packet loop is unaffected. sampler gates the 1-in-N packet
	// traces collected in traces (both nil at the default TraceSampling
	// of 0); lockWaitVec and linkSeconds are the two live histograms,
	// fed from the contended-lock slow path and the plane-build link
	// step respectively.
	tel         *telemetry.Registry
	sampler     *telemetry.Sampler
	traces      *telemetry.TraceLog
	lockWaitVec *telemetry.HistogramVec
	linkSeconds *telemetry.Histogram

	gate   *gate
	mu     sync.Mutex // serializes InjectBatch/InjectStream/Close
	closed atomic.Bool

	failOnce sync.Once
	failed   atomic.Bool
	err      error
}

// NewEngine builds the data plane for a compiled configuration with fresh
// (empty) state tables and starts its worker pool — no goroutine at all
// for a single-worker engine without mirror replicas. Call Close to stop
// the goroutines.
//
// Processing errors are sticky: a hop-limit overflow, missing state owner
// or VM fault aborts the current batch AND poisons the engine — every
// later InjectBatch/InjectStream returns the first error without
// injecting. These errors all indicate a miscompiled configuration, and
// the abort may have dropped copies mid-flight, so the state tables are no
// longer trustworthy; build a fresh Engine instead of retrying. An unknown
// ingress port, by contrast, is a caller input error: the offending
// injection is rejected and reported, and the engine stays healthy.
func NewEngine(cfg *rules.Config, opts Options) *Engine {
	opts = opts.withDefaults(cfg)
	e := &Engine{
		opts:     opts,
		stripes:  state.NewStripes(opts.Stripes),
		load:     make(map[topo.NodeID]*switchCounters, len(cfg.Switches)),
		window:   make(chan struct{}, opts.Window),
		obs:      make(map[topo.NodeID]*obsShard, len(cfg.Switches)),
		down:     make([]atomic.Bool, cfg.Topo.Switches),
		quar:     make([]atomic.Bool, cfg.Topo.Switches),
		gate:     newGate(),
		contHist: map[string]VarContention{},
	}
	for id := range cfg.Switches {
		e.load[id] = &switchCounters{}
		e.obs[id] = &obsShard{counts: map[[2]int]int64{}, drops: map[[2]int]int64{}}
	}
	e.workers = make([]*worker, opts.Workers)
	for i := range e.workers {
		e.workers[i] = &worker{id: i, eng: e, kick: make(chan struct{}, 1), sync: make(chan chan struct{})}
	}
	// The registry and the two live histogram handles must exist before
	// buildPlane runs (it resolves per-variable lock-wait histograms and
	// times the link step).
	e.tel = telemetry.NewRegistry()
	e.lockWaitVec = e.tel.HistogramVec("snap_lock_wait_seconds",
		"Wait of blocked stripe-lock acquisitions, attributed to every variable of the contended lock set.",
		1e-9, "var")
	e.linkSeconds = e.tel.Histogram("snap_link_seconds",
		"Duration of program-link passes at plane builds (cold start and reconfigurations).", 1e-9)
	if opts.TraceSampling > 0 {
		e.sampler = telemetry.NewSampler(opts.TraceSampling)
		e.traces = telemetry.NewTraceLog(opts.TraceBuffer)
		e.tel.Traces = e.traces
	}
	e.rep = newReplicator(e, cfg)
	e.plane.Store(e.buildPlane(cfg, e.rep))
	e.rep.start()
	if opts.Workers > 1 {
		// Window-deep: admission already bounds in-flight injections by
		// Window, so a send to the pool never blocks the injector.
		e.jobs = make(chan job, opts.Window)
		for _, w := range e.workers {
			e.wg.Add(1)
			go w.loop(e.jobs)
		}
	}
	e.registerMetrics()
	return e
}

// linkProgramsCached is linkPrograms through the engine's cross-epoch
// cache: distinct images already linked in a previous epoch (same program
// pointer, ownership set and variable-name space) are reused, so a hot
// swap pays link cost only for the switches the recompilation dirtied.
func (e *Engine) linkProgramsCached(cfg *rules.Config) map[topo.NodeID]*netasm.Linked {
	t0 := time.Now()
	defer func() { e.linkSeconds.Observe(int64(time.Since(t0))) }()
	vs := cfg.VarSpace()
	if sig := vs.Signature(); e.linkCache == nil || sig != e.linkSig {
		e.linkCache = map[linkKey]*netasm.Linked{}
		e.linkSig = sig
	}
	out := make(map[topo.NodeID]*netasm.Linked, len(cfg.Switches))
	counted := map[linkKey]bool{}
	for id, sc := range cfg.Switches {
		k := linkKey{prog: sc.Prog, owns: rules.OwnsKey(sc.Owns)}
		lp, hit := e.linkCache[k]
		if !hit {
			lp = netasm.Link(sc.Prog, vs, sc.Owns)
			e.linkCache[k] = lp
		}
		if !counted[k] {
			counted[k] = true
			if hit {
				e.linkReused.Add(1)
			} else {
				e.linkFresh.Add(1)
			}
		}
		out[id] = lp
	}
	return out
}

// LinkStats reports the engine's lifetime link-cache accounting over
// distinct program images: Reused images were recalled from a previous
// epoch, Linked were compiled by netasm.Link. The first plane build is
// all Linked; a policy edit whose programs survived (rules' generator
// keeps them pointer-stable) shows up as Reused at the swap.
func (e *Engine) LinkStats() (reused, linked int64) {
	return e.linkReused.Load(), e.linkFresh.Load()
}

// buildPlane instantiates switch VMs for a configuration, linking each
// program once against the configuration's variable space and selecting
// the concurrency discipline: when Options.StateReplication is set and the
// plane classifies replication-safe, per-worker state replicas connected
// by update rings (scr.go); otherwise one VM set guarded by lock sets
// drawn from the engine's stripe pool, so successive plane epochs keep a
// consistent variable→stripe mapping. It starts no goroutine, so an
// abandoned (rolled-back) plane leaks nothing.
func (e *Engine) buildPlane(cfg *rules.Config, rep *replicator) *plane {
	p := &plane{cfg: cfg}
	linked := e.linkProgramsCached(cfg)
	p.diags = collectDiags(linked)
	vs := cfg.VarSpace()
	p.owners = make([]topo.NodeID, vs.Len())
	p.placed = make([]bool, vs.Len())
	for i := range p.owners {
		if node, ok := cfg.Placement[vs.Name(i)]; ok {
			p.owners[i] = node
			p.placed[i] = true
		}
	}
	if e.opts.StateReplication {
		if reasons := replicationBlockers(linked, e.opts.Workers); len(reasons) == 0 {
			p.mode = ModeReplication
			p.scr = e.buildSCR(cfg, linked, rep)
			// Worker 0's replica doubles as the canonical switch set the
			// control plane reads (always through reconcile, under the gate).
			p.switches = p.scr.replicas[0].switches
			p.locks = make(map[topo.NodeID]state.LockSet, len(cfg.Switches))
			return p
		} else {
			p.repFallback = reasons
			p.diags = append(p.diags, "state replication requested but refused: "+strings.Join(reasons, " | "))
		}
	}
	p.switches = make(map[topo.NodeID]*netasm.Switch, len(cfg.Switches))
	p.locks = make(map[topo.NodeID]state.LockSet, len(cfg.Switches))
	p.lockSusp = make([]atomic.Int64, vs.Len())
	p.lockWait = make([]atomic.Int64, vs.Len())
	p.lockHist = make([]*telemetry.Histogram, vs.Len())
	p.lockVars = make(map[topo.NodeID][]int32, len(cfg.Switches))
	for id := range cfg.Switches {
		sw := netasm.NewLinkedSwitch(int(id), linked[id])
		if rep != nil && rep.pending[id] != nil { // primary of a replicated variable
			sw.OnStateOp = func(u state.Update) { rep.enqueue(u, true) }
		}
		p.switches[id] = sw
		p.locks[id] = e.stripes.LockSet(sw.LockVars())
		for _, v := range sw.LockVars() {
			if vid := vs.ID(v); vid >= 0 {
				p.lockVars[id] = append(p.lockVars[id], int32(vid))
				// Same variable name across epochs → same histogram
				// child, so waits accumulate over the engine's life.
				p.lockHist[vid] = e.lockWaitVec.With(v)
			}
		}
	}
	return p
}

// Close stops the worker pool and the mirror drainer. The engine must be
// quiescent (no InjectBatch/InjectStream in progress).
func (e *Engine) Close() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed.Load() {
		return
	}
	e.closed.Store(true)
	if e.jobs != nil {
		close(e.jobs)
		e.wg.Wait()
	}
	e.replicator().stop()
}

// fail records the first error and aborts outstanding work: remaining
// copies drain without processing.
func (e *Engine) fail(err error) {
	e.failOnce.Do(func() {
		e.err = err
		e.failed.Store(true)
	})
}

// inject admits one packet (blocking on the gate, then the window) and
// hands it to the worker pool — run on the calling goroutine when the
// engine has one worker. out, when non-nil, collects its deliveries. An
// unknown port rejects only this injection — the caller gets the error and
// the engine stays usable; packets admitted before the bad one have
// already run, which stream callers must expect.
func (e *Engine) inject(ing Ingress, out *[]Delivery, wg *sync.WaitGroup) error {
	e.gate.enter()
	pl := e.plane.Load()
	pt, ok := pl.cfg.Topo.PortByID(ing.Port)
	if !ok {
		e.gate.leave()
		return fmt.Errorf("dataplane: unknown ingress port %d", ing.Port)
	}
	if w := e.opts.ShedWatermark; w > 0 && len(e.window) >= w {
		// Overload: the in-flight window is at the shed watermark. Reject
		// before taking a window slot — admission is serialized under e.mu,
		// so the depth read cannot race another injector upward.
		e.gate.leave()
		e.stats.shed.Add(1)
		return ErrOverload
	}
	e.window <- struct{}{}
	seq := e.stats.injected.Add(1)
	j := job{
		at: pt.Switch,
		sp: netasm.SimPacket{
			Pkt: ing.Packet,
			Hdr: netasm.Header{
				OBSIn:  ing.Port,
				OBSOut: -1,
				Node:   pl.cfg.RootID,
				Seq:    -1,
				Phase:  netasm.PhaseEval,
			},
		},
		out: out,
		wg:  wg,
	}
	if e.sampler.Hit() {
		j.tr = e.traces.Start(ing.Port, seq)
	}
	wg.Add(1)
	if e.jobs == nil {
		e.workers[0].run(&j)
	} else {
		e.jobs <- j
	}
	return nil
}

// InjectBatch pushes a batch of packets through the plane concurrently and
// waits for quiescence. out[i] holds the deliveries of batch[i], sorted
// canonically (port, then packet key); multicast copies that end up
// indistinguishable collapse, as the semantics' packet sets do. Ingress
// ports are validated up front, so a bad batch is rejected before any
// packet runs; a processing error mid-batch aborts it (remaining copies
// drain unprocessed) and poisons the engine — see NewEngine.
func (e *Engine) InjectBatch(batch []Ingress) ([][]Delivery, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed.Load() {
		return nil, fmt.Errorf("dataplane: engine is closed")
	}
	// Validate every ingress port before admitting anything: a bad port
	// must not leave the first half of the batch silently executed.
	batchTopo := e.plane.Load().cfg.Topo
	for i, ing := range batch {
		if _, ok := batchTopo.PortByID(ing.Port); !ok {
			return nil, fmt.Errorf("dataplane: unknown ingress port %d (batch index %d)", ing.Port, i)
		}
	}
	if e.failed.Load() {
		return nil, e.err
	}
	out := make([][]Delivery, len(batch))
	var wg sync.WaitGroup
	for i, ing := range batch {
		if e.failed.Load() {
			break
		}
		if err := e.inject(ing, &out[i], &wg); err != nil {
			wg.Wait()
			return nil, err
		}
	}
	wg.Wait()
	if e.failed.Load() {
		return nil, e.err
	}
	for _, ds := range out {
		sortDeliveries(ds)
	}
	return out, nil
}

// InjectStream consumes ingress from ch until it closes, applying the same
// admission control as InjectBatch, and waits for quiescence. Deliveries
// are counted in Stats but not collected, so arbitrarily long replays run
// in constant memory. Returns the first error: a processing error (which
// poisons the engine) or a bad ingress port (which does not — the stream
// stops there, but the engine remains usable).
func (e *Engine) InjectStream(ch <-chan Ingress) error {
	return e.stream(func() (Ingress, bool) {
		ing, ok := <-ch
		return ing, ok
	})
}

// stream drains an ingress iterator in stream mode and waits for
// quiescence, sharing the admission/unwind bookkeeping between the
// channel and slice frontends.
func (e *Engine) stream(next func() (Ingress, bool)) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed.Load() {
		return fmt.Errorf("dataplane: engine is closed")
	}
	if e.failed.Load() {
		return e.err
	}
	var wg sync.WaitGroup
	for {
		ing, ok := next()
		if !ok || e.failed.Load() {
			break
		}
		if err := e.inject(ing, nil, &wg); err != nil {
			if errors.Is(err, ErrOverload) {
				// Graceful degradation: the shed packet is counted and
				// the stream goes on — long replays ride out transient
				// overload instead of aborting.
				continue
			}
			wg.Wait()
			return err
		}
	}
	wg.Wait()
	if e.failed.Load() {
		return e.err
	}
	return nil
}

// InjectReplay pushes a pre-built trace through the plane in stream mode
// (deliveries counted, not collected) and waits for quiescence — the load
// harness's and benchmarks' fast path, avoiding per-packet channel hops
// between producer and engine.
func (e *Engine) InjectReplay(trace []Ingress) error {
	i := 0
	return e.stream(func() (Ingress, bool) {
		if i >= len(trace) {
			return Ingress{}, false
		}
		ing := trace[i]
		i++
		return ing, true
	})
}

// ApplyConfig installs a recompiled configuration on the live engine: an
// epoch-based hot swap that preserves every state entry. The sequence is
//
//  1. pause — the admission gate stops new injections (InjectBatch and
//     InjectStream callers block mid-call and continue afterwards) and
//     waits for all in-flight injections to retire, leaving the workers
//     idle;
//  2. migrate — the per-switch state tables are unioned into the global
//     store, passed through rewrite (nil = identity; internal/ctrl uses it
//     to fold shard variables the new configuration no longer knows), and
//     re-seated variable by variable on each one's new owner switch;
//  3. swap — fresh VMs with the migrated tables, the new programs and new
//     routes are published atomically as the next plane epoch, and the
//     gate resumes admission.
//
// The new configuration must target the same physical network (same
// switch count, same OBS port→switch attachment); routing, placement and
// programs are free to change. A state variable with entries but no owner
// under the new placement is an error — fold or drop it in rewrite.
// ApplyConfig must not race with Close.
func (e *Engine) ApplyConfig(cfg *rules.Config, rewrite StateRewrite) error {
	// A failed switch must stay failed in the new configuration: applying
	// a topology that treats it as up would silently re-seat state (and
	// route traffic) onto a dead switch. Recover through Failover first;
	// post-failover ApplyConfig calls carry the degraded topology and
	// pass. The port sets must still match exactly — a surviving network
	// neither grows nor loses ports outside the failover path.
	for n := range e.down {
		if e.down[n].Load() && cfg.Topo.Up(topo.NodeID(n)) {
			return fmt.Errorf("dataplane: switch %d has failed; reconfigure through Failover with a degraded-topology configuration", n)
		}
	}
	if err := e.compatible(cfg, false); err != nil {
		return err
	}
	_, err := e.apply(cfg, rewrite, false, nil)
	return err
}

// recovery lists the failed elements an apply brings back up; the flags
// clear only at the commit point, after the old plane's state has been
// extracted (a recovering switch's stale tables must not resurrect) and
// after every error return is behind.
type recovery struct {
	switches []topo.NodeID
	links    [][2]topo.NodeID
}

// apply is the shared swap sequence of ApplyConfig, Failover and Recover,
// structured as a transaction: prepare (flush, reconcile, union, rewrite),
// validate (every entry-holding variable has an up owner), build (link +
// plane + replica seed), then commit. Every
// fallible stage runs in prepareSwap against private data; a failure
// there — or a panic, contained there — rolls back: the old plane keeps
// serving on the unchanged epoch with all state intact, the rollback
// counter bumps, and the error returns for the controller's retry
// discipline. In degraded mode, state owned by down switches is recovered
// from backup tables (promotion) or reported lost; otherwise an
// entry-holding variable without a new owner is an error.
func (e *Engine) apply(cfg *rules.Config, rewrite StateRewrite, degraded bool, rec *recovery) (*FailoverStats, error) {
	began := time.Now()
	e.gate.pause()
	defer e.gate.resume()
	if e.closed.Load() {
		return nil, fmt.Errorf("dataplane: engine is closed")
	}
	if e.failed.Load() {
		return nil, fmt.Errorf("dataplane: cannot reconfigure a poisoned engine: %w", e.err)
	}
	// Mirror records still queued at alive primaries reach the backup
	// tables before any of them is read or discarded.
	e.replicator().flush()

	fs := &FailoverStats{Promoted: map[string]topo.NodeID{}}
	old := e.plane.Load()
	// Under the replication discipline, drain the update rings so worker
	// 0's replica (old.switches) is the converged canonical state.
	e.reconcile(old)
	global := e.unionUpState(old.switches)
	if degraded {
		e.recoverOrphans(old, cfg, global, fs)
	}
	next, newRep, err := e.prepareSwap(cfg, rewrite, global)
	if err != nil {
		return nil, e.rollback(began, err)
	}

	// Commit point: nothing below can fail. The outgoing plane's
	// contention counters bank here (not earlier — a rolled-back apply
	// must not double-count them on retry), recovering elements come back
	// up here — after the stale state of the dead switches was excluded
	// from the union above, and never on an errored apply — and panic
	// quarantine lifts: the poisoned VMs have just been replaced by fresh
	// ones re-seated from the migrated state.
	e.foldContention(old)
	e.clearQuarantine()
	if rec != nil {
		for _, s := range rec.switches {
			e.down[s].Store(false)
		}
		if len(rec.links) > 0 {
			e.linkMu.Lock()
			alive := map[[2]topo.NodeID]bool{}
			if old := e.deadLinks.Load(); old != nil {
				for k, v := range *old {
					alive[k] = v
				}
			}
			for _, l := range rec.links {
				delete(alive, [2]topo.NodeID{l[0], l[1]})
				delete(alive, [2]topo.NodeID{l[1], l[0]})
			}
			e.deadLinks.Store(&alive)
			e.linkMu.Unlock()
		}
	}
	e.plane.Store(next)
	e.epoch.Add(1)
	e.repMu.Lock()
	oldRep := e.rep
	e.rep = newRep
	e.repMu.Unlock()
	oldRep.stop()
	newRep.start()
	fs.LostWrites = e.repLost.Load()
	return fs, nil
}

// prepareSwap runs every fallible stage of a reconfiguration — the state
// rewrite, ownership validation, link + plane build, replica seeding and
// the state re-seat — against data the old plane never reads, so an error
// anywhere aborts with the engine exactly as it was. The one piece of
// engine state buildPlane touches, the cross-epoch link cache, is
// snapshotted and restored on failure (a half-populated cache keyed to an
// abandoned VarSpace must not leak into the next attempt). A panic in any
// stage is contained here and rolls back like an error. No goroutines are
// started for the tentative plane (buildPlane and newReplicator guarantee
// that), so abandoning it leaks nothing.
//
// The engine.apply.* fault points mark the three externally injectable
// failure stages — rewrite, link, reseed — for tests and the chaos
// harness.
func (e *Engine) prepareSwap(cfg *rules.Config, rewrite StateRewrite, global *state.Store) (next *plane, newRep *replicator, err error) {
	prevSig, prevCache := e.linkSig, e.linkCache
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("dataplane: contained panic during reconfiguration: %v\n%s", v, debug.Stack())
		}
		if err != nil {
			e.linkSig, e.linkCache = prevSig, prevCache
			next, newRep = nil, nil
		}
	}()
	if err := faultpoint.Hit(faultpoint.EngineApplyRewrite); err != nil {
		return nil, nil, fmt.Errorf("dataplane: state rewrite: %w", err)
	}
	if rewrite != nil {
		if global, err = rewrite(global); err != nil {
			return nil, nil, fmt.Errorf("dataplane: state rewrite: %w", err)
		}
	}
	// Validate ownership before paying for the build: an entry-holding
	// variable the new placement cannot seat fails the swap regardless of
	// what the plane would look like.
	for _, v := range global.Vars() {
		owner, ok := cfg.Placement[v]
		if !ok {
			return nil, nil, fmt.Errorf("dataplane: state variable %s has no owner under the new configuration (fold or drop it in the rewrite)", v)
		}
		if !cfg.Topo.Up(owner) {
			return nil, nil, fmt.Errorf("dataplane: state variable %s placed on down switch %d", v, owner)
		}
	}
	if err := faultpoint.Hit(faultpoint.EngineApplyLink); err != nil {
		return nil, nil, fmt.Errorf("dataplane: link: %w", err)
	}
	// Build the new configuration's replicator and hook the new switch VMs
	// into it; seed the new backup tables from the re-seated primaries so
	// backups are warm from the first post-swap packet. The engine's live
	// replicator is only swapped at the caller's commit point.
	newRep = newReplicator(e, cfg)
	next = e.buildPlane(cfg, newRep)
	if err := faultpoint.Hit(faultpoint.EngineApplyReseed); err != nil {
		return nil, nil, fmt.Errorf("dataplane: state reseat: %w", err)
	}
	for _, v := range global.Vars() {
		next.seedVar(global, v, cfg.Placement[v])
	}
	newRep.seed(next)
	return next, newRep, nil
}

// replicator returns the live replication pipeline (possibly nil) under
// the pointer lock.
func (e *Engine) replicator() *replicator {
	e.repMu.Lock()
	defer e.repMu.Unlock()
	return e.rep
}

// recoverOrphans sources the entries of variables whose primary owner is
// down: the first alive replica in promotion-preference order (per the old
// configuration) is authoritative; with no surviving replica the entries
// are lost and only counted. Victim tables are never read — a dead
// switch's memory is unreachable by definition; the simulator merely still
// holds it, which is what lets the loss be counted exactly.
func (e *Engine) recoverOrphans(old *plane, cfg *rules.Config, global *state.Store, fs *FailoverStats) {
	oldCfg := old.cfg
	vars := make([]string, 0, len(oldCfg.Placement))
	for v := range oldCfg.Placement {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	for _, v := range vars {
		owner := oldCfg.Placement[v]
		if !e.down[owner].Load() {
			continue
		}
		if tbl := e.replicator().aliveReplica(v); tbl != nil {
			tbl.AddToStore(global, v)
			fs.Recovered += tbl.Len()
			if newOwner, ok := cfg.Placement[v]; ok {
				fs.Promoted[v] = newOwner
			}
			continue
		}
		if victim := old.switches[owner]; victim != nil {
			if n := victim.EntryCount(v); n > 0 {
				fs.LostVars = append(fs.LostVars, v)
				fs.LostEntries += n
			}
		}
	}
}

// compatible checks a new configuration targets the engine's physical
// network: switch IDs index the per-switch counters and port attachments
// decide where injections enter, so both must be preserved across epochs. In
// degraded mode the new topology may have *fewer* ports (a dead switch
// takes its ports with it), but every surviving port must keep its
// attachment; otherwise the port sets must match exactly. Mismatches
// report the precise per-port diff — the failover path and its operators
// need to see exactly which attachment moved, not a bare rejection.
func (e *Engine) compatible(cfg *rules.Config, degraded bool) error {
	t := cfg.Topo
	cur := e.plane.Load().cfg.Topo
	if t.Switches != cur.Switches {
		return fmt.Errorf("dataplane: ApplyConfig topology has %d switches, engine has %d", t.Switches, cur.Switches)
	}
	if diff := portDiff(cur, t, degraded); diff != "" {
		return fmt.Errorf("dataplane: ApplyConfig topology port mismatch: %s", diff)
	}
	return nil
}

// portDiff describes how topology b's external ports differ from a's:
// added ports, removed ports (allowed when removedOK), and re-attached
// ports (never allowed — injections would enter at the wrong switch).
// Empty means compatible.
func portDiff(a, b *topo.Topology, removedOK bool) string {
	var added, removed, moved []string
	for _, p := range b.Ports {
		if q, ok := a.PortByID(p.ID); !ok {
			added = append(added, fmt.Sprintf("port %d (switch %d) not on the engine's network", p.ID, p.Switch))
		} else if q.Switch != p.Switch {
			moved = append(moved, fmt.Sprintf("port %d attached to switch %d, engine has it on switch %d", p.ID, p.Switch, q.Switch))
		}
	}
	for _, p := range a.Ports {
		if _, ok := b.PortByID(p.ID); !ok {
			removed = append(removed, fmt.Sprintf("port %d (switch %d) missing from the new topology", p.ID, p.Switch))
		}
	}
	var parts []string
	parts = append(parts, moved...)
	parts = append(parts, added...)
	if !removedOK {
		parts = append(parts, removed...)
	}
	sort.Strings(parts)
	return strings.Join(parts, "; ")
}

// unionUpState unions the state tables of alive switches only: a down
// switch's memory is gone with it.
func (e *Engine) unionUpState(switches map[topo.NodeID]*netasm.Switch) *state.Store {
	out := state.NewStore()
	ids := make([]topo.NodeID, 0, len(switches))
	for id := range switches {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if e.down[id].Load() {
			continue
		}
		switches[id].StateInto(out)
	}
	return out
}

// Epoch counts the configurations this engine has run: 0 at NewEngine,
// +1 per successful ApplyConfig.
func (e *Engine) Epoch() int64 { return e.epoch.Load() }

// Config returns the configuration of the current plane epoch.
func (e *Engine) Config() *rules.Config { return e.plane.Load().cfg }

// obsShard accumulates delivered- and dropped-pair counts at one switch.
type obsShard struct {
	mu     sync.Mutex
	counts map[[2]int]int64
	drops  map[[2]int]int64
}

// observe records one delivery (at switch `at`) in the empirical matrix.
func (e *Engine) observe(at topo.NodeID, in, out int) {
	s := e.obs[at]
	s.mu.Lock()
	s.counts[[2]int{in, out}]++
	s.mu.Unlock()
}

// observeDrop records one dropped copy against its ingress port, keyed by
// the intended egress when the packet already knew it (out < 0 otherwise).
// Folding drops into the observed matrix keeps the drift signal on the
// *offered* load: before this, drops were invisible to drift detection —
// a flow that the plane started dropping (policy, dead outport, failure
// injection) simply vanished from the matrix, as if its demand had gone.
func (e *Engine) observeDrop(at topo.NodeID, in, out int) {
	if out < 0 {
		out = -1
	}
	s := e.obs[at]
	s.mu.Lock()
	s.drops[[2]int{in, out}]++
	s.mu.Unlock()
}

// ObservedMatrix returns the engine's empirical traffic matrix per
// (ingress, egress) OBS port pair since the last ResetObserved: delivered
// packets plus dropped copies folded in at their ingress (keyed under the
// intended egress when known, egress -1 otherwise), so drift detection
// sees the offered load even for traffic the plane drops. It is safe to
// call mid-stream (each per-switch shard is a live, internally consistent
// snapshot) and is what ctrl.Monitor compares against the matrix the
// running configuration was optimized for.
func (e *Engine) ObservedMatrix() traffic.Matrix {
	m := traffic.Matrix{}
	for _, s := range e.obs {
		s.mu.Lock()
		for k, c := range s.counts {
			m[k] += float64(c)
		}
		for k, c := range s.drops {
			m[k] += float64(c)
		}
		s.mu.Unlock()
	}
	return m
}

// DropsByIngress returns the per-ingress-port dropped-copy counters since
// the last ResetObserved.
func (e *Engine) DropsByIngress() map[int]int64 {
	out := map[int]int64{}
	for _, s := range e.obs {
		s.mu.Lock()
		for k, c := range s.drops {
			out[k[0]] += c
		}
		s.mu.Unlock()
	}
	return out
}

// ResetObserved clears the empirical traffic matrix (deliveries and
// drops), starting a fresh observation window (the controller calls it
// after each reconfiguration).
func (e *Engine) ResetObserved() {
	for _, s := range e.obs {
		s.mu.Lock()
		s.counts = map[[2]int]int64{}
		s.drops = map[[2]int]int64{}
		s.mu.Unlock()
	}
}

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() Stats { return e.stats.snapshot() }

// Load reports each switch's share of the work performed so far. The
// snapshot is taken under the admission gate (in-flight traffic drains
// first), so the numbers are exact and mutually consistent even when
// called concurrently with InjectStream.
func (e *Engine) Load() map[topo.NodeID]SwitchLoad {
	e.gate.pause()
	defer e.gate.resume()
	out := make(map[topo.NodeID]SwitchLoad, len(e.load))
	for id, c := range e.load {
		out[id] = c.snapshot()
	}
	return out
}

// GlobalState unions the per-switch state tables into the one-big-switch
// store. Placement puts each variable on exactly one switch, so the union
// is well defined. It is built under the admission gate: new injections
// pause and in-flight copies drain first, so the snapshot is a consistent
// quiescent point even when taken mid-stream, and the returned store is a
// copy that later traffic cannot mutate. Down switches are excluded —
// their memory died with them — so after a failure this is the
// *surviving* global state.
func (e *Engine) GlobalState() *state.Store {
	e.gate.pause()
	defer e.gate.resume()
	pl := e.plane.Load()
	e.reconcile(pl)
	return e.unionUpState(pl.switches)
}

// SwitchTable snapshots one switch's tables in canonical Store form
// (tests and diagnostics), under the same gate discipline as GlobalState.
// It returns a copy: the live tables may move to a different owner at the
// next ApplyConfig.
func (e *Engine) SwitchTable(id topo.NodeID) *state.Store {
	e.gate.pause()
	defer e.gate.resume()
	pl := e.plane.Load()
	e.reconcile(pl)
	if sw, ok := pl.switches[id]; ok {
		return sw.Snapshot()
	}
	return nil
}
