package main

import (
	"fmt"

	"snap/internal/dataplane"
	"snap/internal/place"
	"snap/internal/topo"
	"snap/internal/traffic"
)

// opKind names one of the operations a run interleaves. Every workload
// runs every kind, so every run reports every end-to-end metric; the
// workloads differ in topology, policy, engine discipline and in the share
// of the measured time each kind receives.
type opKind int

const (
	opReplay  opKind = iota // one stream-replay chunk → replay_pps
	opLatency               // a batch of one-packet InjectBatch probes → pkt_latency_*
	opChurn                 // a replay chunk then a live policy edit → churn_pps, policy_change_ms, swap_pause_ms
	opTopo                  // a traffic-matrix recompile applied to the engine → topo_change_ms
	opCompile               // one cold compile → cold_compile_ms
	numOps
)

// spec fixes everything a workload runs: the network, the policy
// lineage, the packet stream and the engine options.
type spec struct {
	name string
	topo *topo.Topology
	// ports is the number of OBS ports the policy is sized to.
	ports int
	// demands is the optimization input of every compile.
	demands traffic.Matrix
	place   place.Options
	engine  dataplane.Options
	// policySrc returns the surface syntax of the i-th policy of the
	// lineage: 0 is the deployed policy, each edit advances i.
	policySrc func(i int) string
	// dns marks the DNS-tunnel policy family (ACL edits, oracle prefix
	// check); otherwise the counter rotation (arithmetic shadow).
	dns bool
	// stream returns the seeded packet source.
	stream func(seed int64) *stream
	// stateVar is the variable whose owner switch the visit probe runs.
	stateVar string
	// weights is each op kind's share of the measured time.
	weights [numOps]float64
	// replayChunk and churnChunk are the packets per replay and per churn
	// round; latencyBatch the probes per latency op.
	replayChunk, churnChunk, latencyBatch int
	// setupReps is how many times setup runs; setup_s is their median.
	setupReps int
	// oraclePrefix is how many packets the DNS oracle check replays.
	oraclePrefix int
	// warmPackets is the warm-up replay length.
	warmPackets int
	// wantMode is the execution discipline the engine must report, and
	// wantReplicas whether the configuration must carry backup replicas.
	wantMode     dataplane.ExecMode
	wantReplicas bool
}

// aclPort is the source port the i-th edit's ACL fragment drops.
func aclPort(seed int64, i int) int {
	return aclBase + int((seed*7919+int64(i))%5000+5000)%5000
}

// workloads lists the benchmark's workloads in BENCHMARK.json order.
var workloads = []struct {
	name  string
	build func(seed int64) (*spec, error)
}{
	{"dns-campus", dnsCampus},
	{"igen-compile", igenCompile},
	{"stanford-churn", func(int64) (*spec, error) { return stanford(false) }},
	{"stanford-scr", func(int64) (*spec, error) { return stanford(true) }},
}

func dnsLineage(seed int64, n int) func(int) string {
	return func(i int) string {
		if i == 0 {
			return dnsPolicySrc(n, 0)
		}
		return dnsPolicySrc(n, aclPort(seed, i))
	}
}

// dnsCampus is the paper's running example: the Figure 1 detector with
// the assumption and assign-egress on the Figure 2 campus, one worker
// (inline, deterministic order), no replication. Per-packet cost carries
// almost all of the run.
func dnsCampus(seed int64) (*spec, error) {
	t := topo.Campus(1000)
	n := len(t.Ports)
	return &spec{
		name:         "dns-campus",
		topo:         t,
		ports:        n,
		demands:      traffic.Gravity(t, 100, 1),
		place:        place.Options{Method: place.Heuristic},
		engine:       dataplane.Options{Workers: 1},
		policySrc:    dnsLineage(seed, n),
		dns:          true,
		stream:       func(s int64) *stream { return dnsStream(s, n) },
		stateVar:     "susp-client",
		weights:      [numOps]float64{opReplay: 0.6, opLatency: 0.15, opChurn: 0.1, opTopo: 0.08, opCompile: 0.07},
		replayChunk:  4096,
		churnChunk:   4096,
		latencyBatch: 200,
		setupReps:    41,
		oraclePrefix: 1500,
		warmPackets:  160000,
		wantMode:     dataplane.ModeLocks,
	}, nil
}

// igenCompile is the Figure 10 workload at its largest CI-feasible size:
// the DNS policy sized to the ports of an IGen-120 network. Cold compiles,
// single-fragment edits applied to a nearly idle engine and traffic-matrix
// changes carry the run; the data plane sees little traffic.
func igenCompile(seed int64) (*spec, error) {
	t, err := topo.NewIGen(120, 1000)
	if err != nil {
		return nil, err
	}
	n := len(t.Ports)
	return &spec{
		name:         "igen-compile",
		topo:         t,
		ports:        n,
		demands:      traffic.Gravity(t, 100, 1),
		place:        place.Options{Method: place.Heuristic},
		engine:       dataplane.Options{Workers: 1},
		policySrc:    dnsLineage(seed, n),
		dns:          true,
		stream:       func(s int64) *stream { return dnsStream(s, n) },
		stateVar:     "susp-client",
		weights:      [numOps]float64{opReplay: 0.08, opLatency: 0.05, opChurn: 0.45, opTopo: 0.12, opCompile: 0.3},
		replayChunk:  1024,
		churnChunk:   128,
		latencyBatch: 100,
		setupReps:    5,
		oraclePrefix: 200,
		warmPackets:  16384,
		wantMode:     dataplane.ModeLocks,
	}, nil
}

// stanford is the port-scaled Stanford network of Table 5 under the
// counter rotation. With scr false it is stanford-churn: striped locks,
// two workers, K=2 backup replicas, a policy edit between every churn
// chunk. With scr true it is stanford-scr: the state-compute replication
// discipline with two workers and steady replay.
func stanford(scr bool) (*spec, error) {
	t, err := topo.Named("Stanford", 1000, 0.08)
	if err != nil {
		return nil, err
	}
	n := len(t.Ports)
	if n > 200 {
		return nil, fmt.Errorf("stanford: %d ports exceed the 10.0.i.0/24 subnet plan", n)
	}
	m := traffic.Gravity(t, 1e6, 1)
	s := &spec{
		name:         "stanford-churn",
		topo:         t,
		ports:        n,
		demands:      m,
		place:        place.Options{Method: place.Heuristic, Replicas: 2},
		engine:       dataplane.Options{Workers: 2},
		policySrc:    func(i int) string { return counterPolicySrc(n, i) },
		stream:       func(s int64) *stream { return counterStream(s, m) },
		stateVar:     "flows",
		weights:      [numOps]float64{opReplay: 0.1, opLatency: 0.1, opChurn: 0.6, opTopo: 0.1, opCompile: 0.1},
		replayChunk:  4096,
		churnChunk:   4096,
		latencyBatch: 200,
		setupReps:    31,
		warmPackets:  40960,
		wantMode:     dataplane.ModeLocks,
		wantReplicas: true,
	}
	if scr {
		s.name = "stanford-scr"
		s.place = place.Options{Method: place.Heuristic}
		s.engine = dataplane.Options{Workers: 2, StateReplication: true}
		s.weights = [numOps]float64{opReplay: 0.6, opLatency: 0.15, opChurn: 0.1, opTopo: 0.08, opCompile: 0.07}
		s.wantMode = dataplane.ModeReplication
		s.wantReplicas = false
	}
	return s, nil
}
