// Package cluster is the multi-node execution layer: a coordinator that
// owns the world clock and drives remote shard nodes over versioned
// NDJSON frames (see repro/wire's cluster surface), plus the node server
// those frames talk to.
//
// The model is world-replica lockstep. Every node holds a full
// deterministic replica of the coordinator's world, built from the same
// seeded factory the coordinator used (BuildWorld). A run_slot command
// makes the node step its replica's fleet one slot, compute its own
// shard's offer slice — the identical slice the coordinator's router
// produced, since both filter the same global offer order through the
// same grid partition — and run the per-shard Algorithm 5 selection
// locally. Only the serializable partial crosses the wire; offers never
// do. After the coordinator's spanning pass and trace-replay
// reconciliation, a commit frame carries the slot's global selection back
// so every replica applies the same lifetime/privacy mutations before the
// next step. The partial crosses in ps's binary layout, every float64 as
// its 64 bits, so a 4-node cluster's SlotReport is bit-identical to the
// single-process sharded one.
//
// The coordinator -> node path is write-behind with a fence: submits
// (a batch of specs in ps's binary layout, one frame per fence) and
// commit frames are posted (written and not answered), every other
// request is a round trip whose response says how many posted frames the
// node has applied, and a shortfall — a frame lost or refused — counts as
// a fault of the connection.
//
// Failure handling: a timeout, a broken connection, a short applied count
// or an error frame marks the lane unavailable, the slot completes
// degraded (ps.ErrNodeUnavailable on the lane's resident queries), and
// the next use of the lane redials and resyncs — the coordinator replays
// its per-lane oplog (submits, cancels, and every slot's global commit)
// against a fresh replica, bumping the lane epoch so anything a stale
// node generation answers is fenced off
// (ps.ErrStaleEpoch). Membership rides on periodic ping frames exchanging
// TTL'd facts; expired liveness facts turn a node suspect, then dead.
package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	ps "repro"
	"repro/internal/obs"
	"repro/wire"
)

// Config describes a cluster: the deterministic world every participant
// replicates, the shard layout, and where each shard runs.
type Config struct {
	// World, Seed and Sensors name the deterministic world factory (see
	// BuildWorld): "rwm" (Sensors required), "rnc" or "intellab".
	World   string
	Seed    int64
	Sensors int
	// Shards is the grid partition's shard count.
	Shards int
	// Nodes maps shard index to the shard node's dial address. An empty
	// entry keeps that shard in-process; a nil/empty slice is a fully
	// in-process cluster. When non-empty, len(Nodes) must equal Shards.
	Nodes []string
	// Heartbeat is the membership ping period; 0 disables heartbeats
	// (liveness then refreshes only on slot traffic).
	Heartbeat time.Duration
	// RPCTimeout bounds every lane round trip (default 5s).
	RPCTimeout time.Duration
	// FactTTL is the lifetime of a liveness fact (default 5s). A node
	// whose fact expired is suspect; one expired past twice the TTL is
	// dead.
	FactTTL time.Duration
}

// clusterMetrics is one atomically-swappable bundle of the coordinator's
// instruments, so BindMetrics can re-home them onto a shared registry
// without racing in-flight lanes.
type clusterMetrics struct {
	nodesLive       *obs.Gauge
	nodesSuspect    *obs.Gauge
	epochRejections *obs.Counter
	partialRTT      *obs.Histogram
	replicaStep     *obs.Histogram
}

func newClusterMetrics(r *obs.Registry) *clusterMetrics {
	return &clusterMetrics{
		nodesLive:       r.Gauge("ps_cluster_nodes_live", "Remote shard nodes with a fresh liveness fact."),
		nodesSuspect:    r.Gauge("ps_cluster_nodes_suspect", "Remote shard nodes whose liveness fact has expired but not yet aged out."),
		epochRejections: r.Counter("ps_cluster_epoch_rejections_total", "Cluster frames discarded by epoch fencing (stale node generations)."),
		partialRTT:      r.Histogram("ps_cluster_partial_rtt_seconds", "Round-trip time of run_slot partial exchanges per lane.", nil),
		replicaStep:     r.Histogram("ps_cluster_replica_step_seconds", "Node-side time to step the world replica and filter the shard's offers, per lane and slot.", nil),
	}
}

// Coordinator owns the cluster's world clock: it wraps a
// ShardedAggregator whose remote shards execute on nodes, reconciles
// their partials into bit-identical SlotReports, and tracks membership.
type Coordinator struct {
	name  string
	cfg   Config
	world *ps.World
	sa    *ps.ShardedAggregator
	lanes map[int]*networkLane
	facts *factTable

	rpcTimeout time.Duration
	factTTL    time.Duration

	m atomic.Pointer[clusterMetrics]

	stopOnce sync.Once
	stop     chan struct{}
	hbDone   chan struct{}
}

// New builds the coordinator: the world replica, the sharded layer, and
// one network lane per remote shard. Every remote node is contacted
// eagerly (hello + replica build), so a cluster that cannot form fails
// here rather than mid-slot; nodes that die later degrade slots and
// rejoin via resync.
func New(cfg Config) (*Coordinator, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("cluster: shard count %d out of range", cfg.Shards)
	}
	world, err := BuildWorld(wire.NodeConfig{World: cfg.World, Seed: cfg.Seed, Sensors: cfg.Sensors, Shards: cfg.Shards})
	if err != nil {
		return nil, err
	}
	sa := ps.NewShardedAggregator(world, cfg.Shards)
	if len(cfg.Nodes) != 0 && len(cfg.Nodes) != sa.ShardCount() {
		return nil, fmt.Errorf("cluster: %d node addresses for %d shards", len(cfg.Nodes), sa.ShardCount())
	}
	if cfg.RPCTimeout <= 0 {
		cfg.RPCTimeout = 5 * time.Second
	}
	if cfg.FactTTL <= 0 {
		cfg.FactTTL = 5 * time.Second
	}
	co := &Coordinator{
		name:       "coordinator",
		cfg:        cfg,
		world:      world,
		sa:         sa,
		lanes:      map[int]*networkLane{},
		facts:      newFactTable(),
		rpcTimeout: cfg.RPCTimeout,
		factTTL:    cfg.FactTTL,
		stop:       make(chan struct{}),
	}
	co.m.Store(newClusterMetrics(obs.NewRegistry()))
	for k, addr := range cfg.Nodes {
		if addr == "" {
			continue
		}
		lane := newNetworkLane(co, k, fmt.Sprintf("node%d", k), addr)
		co.lanes[k] = lane
		sa.SetLaneRunner(k, lane)
	}
	sa.SetPreSlot(co.sweep)
	for _, lane := range co.lanes {
		if err := lane.connect(); err != nil {
			co.Close()
			return nil, err
		}
	}
	if cfg.Heartbeat > 0 && len(co.lanes) > 0 {
		co.hbDone = make(chan struct{})
		go co.heartbeat()
	}
	return co, nil
}

// Sharded returns the aggregator the coordinator drives; callers run
// slots and submit queries through it (or wrap it in a ShardedEngine).
func (co *Coordinator) Sharded() *ps.ShardedAggregator { return co.sa }

// World returns the coordinator's own world replica.
func (co *Coordinator) World() *ps.World { return co.world }

// BindMetrics re-homes the cluster gauges/counters onto reg (typically an
// engine's observability registry, so /metrics serves them). Counts
// recorded on the previous registry are not migrated.
func (co *Coordinator) BindMetrics(reg *obs.Registry) {
	co.m.Store(newClusterMetrics(reg))
}

func (co *Coordinator) metrics() *clusterMetrics { return co.m.Load() }

// nodeConfig is the replica recipe pushed to shard k on hello/resync.
func (co *Coordinator) nodeConfig(shard int) wire.NodeConfig {
	return wire.NodeConfig{
		World:   co.cfg.World,
		Seed:    co.cfg.Seed,
		Sensors: co.cfg.Sensors,
		Shards:  co.sa.ShardCount(),
		Shard:   shard,
	}
}

// noteAlive refreshes a node's liveness fact; only a response from the
// node is evidence for it (a posted write proves nothing).
func (co *Coordinator) noteAlive(node string) {
	co.facts.upsert(wire.Fact{Subject: node, Attribute: "alive", Value: "1", TTLMs: co.factTTL.Milliseconds()}, time.Now())
}

// stateOf maps a lane's liveness fact to a membership state.
func (co *Coordinator) stateOf(l *networkLane, now time.Time) string {
	stale, ok := co.facts.staleFor(l.name, "alive", now)
	switch {
	case !ok:
		return "dead"
	case stale <= 0:
		return "live"
	case stale <= 2*co.factTTL:
		return "suspect"
	default:
		return "dead"
	}
}

// sweep is the pre-slot membership pass: expire facts past their grace
// window and publish the live/suspect gauges. Its wall time shows up as
// the slot trace's membership stage.
func (co *Coordinator) sweep() {
	now := time.Now()
	live, suspect := 0, 0
	for _, l := range co.lanes {
		switch co.stateOf(l, now) {
		case "live":
			live++
		case "suspect":
			suspect++
		}
	}
	m := co.metrics()
	m.nodesLive.Set(float64(live))
	m.nodesSuspect.Set(float64(suspect))
	co.facts.prune(now, 2*co.factTTL)
}

// Membership reports every shard's row: in-process lanes as "local",
// remote lanes by their liveness state and current resync epoch.
func (co *Coordinator) Membership() []wire.ClusterMember {
	now := time.Now()
	members := make([]wire.ClusterMember, 0, co.sa.ShardCount())
	for k := 0; k < co.sa.ShardCount(); k++ {
		l := co.lanes[k]
		if l == nil {
			members = append(members, wire.ClusterMember{Node: "local", Shard: k, State: "local"})
			continue
		}
		members = append(members, wire.ClusterMember{
			Node: l.name, Shard: k, Addr: l.addr, State: co.stateOf(l, now), Epoch: l.Epoch(),
		})
	}
	return members
}

// heartbeat pings every remote lane each period, gossiping the
// coordinator's fact view and merging the nodes' replies. A ping to a
// broken lane redials and resyncs it, so dead nodes rejoin between slots
// instead of stalling the next RunSlot.
func (co *Coordinator) heartbeat() {
	defer close(co.hbDone)
	t := time.NewTicker(co.cfg.Heartbeat)
	defer t.Stop()
	for {
		select {
		case <-co.stop:
			return
		case <-t.C:
			facts := co.facts.snapshot(time.Now())
			for _, l := range co.lanes {
				l.ping(facts)
			}
		}
	}
}

// Close stops the heartbeat and closes every lane connection. Nodes keep
// running (they are coordinator-agnostic); a future coordinator resyncs
// them onto a fresh epoch.
func (co *Coordinator) Close() {
	co.stopOnce.Do(func() { close(co.stop) })
	if co.hbDone != nil {
		<-co.hbDone
	}
	for _, l := range co.lanes {
		l.close()
	}
}
