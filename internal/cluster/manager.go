// Package cluster is the control plane that scales the system past one
// lattice: a Manager partitions data into volumes (one lattice slice
// each), tracks a fleet of storage nodes through OpNodeStat heartbeats,
// and places volumes onto nodes with capacity headroom using weighted
// rendezvous hashing. Brokers route through the manager's epoch-numbered
// volume→node table (see Router) instead of hashing over a flat node
// list, so the fleet can grow node by node while live traffic follows
// re-placements — the CubeFS Access/ClusterManager/BlobNode shape
// applied to entanglement lattices.
//
// Membership is liveness-by-recency: a node that has not heartbeat
// within the TTL is dead, and its volumes are lazily re-placed onto
// live nodes the next time a broker asks about them (get-or-create
// routing plus stale-route hints; cooperative repair then regenerates
// the volume's blocks on the replacement node from the surviving
// lattice). The manager state survives restarts through an atomic JSON
// snapshot; heartbeat-derived signals are soft state and rebuild from
// the next heartbeat round.
package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"aecodes/internal/placement"
	"aecodes/internal/transport"
)

// ErrNoNodes is returned when a volume needs a node but no live node
// has headroom.
var ErrNoNodes = errors.New("cluster: no live node with headroom")

// DefaultTTL is the liveness window when Options.TTL is zero: a node
// whose last heartbeat is older than this is dead.
const DefaultTTL = 10 * time.Second

// unboundedHeadroom stands in for a Capacity=0 node's free space when
// weighting placement: effectively infinite next to real disks, while
// still finite so weighted hashing stays well-defined.
const unboundedHeadroom = float64(1 << 50)

// Options configures a Manager.
type Options struct {
	// TTL is the heartbeat liveness window; zero means DefaultTTL.
	TTL time.Duration
	// SnapshotPath persists membership and the routing table as an
	// atomically-replaced JSON file; empty disables persistence.
	SnapshotPath string
	// Clock overrides time.Now for deterministic tests.
	Clock func() time.Time
}

// nodeState is one node's view in the manager: the last heartbeat and
// when it arrived.
type nodeState struct {
	stat     transport.NodeStat
	lastSeen time.Time
}

// Manager tracks fleet membership and owns the authoritative volume→node
// routing table. It implements transport.ClusterHandler, so wiring it
// into a transport.Server via SetClusterHandler gives it the heartbeat
// and usage ops; Store() exposes the routing table to brokers over plain
// OpGet on reserved "!cluster/..." keys.
type Manager struct {
	ttl          time.Duration
	now          func() time.Time
	snapshotPath string
	placer       placement.Rendezvous

	mu       sync.Mutex
	nodes    map[string]*nodeState // fleet membership; guarded by mu
	routes   map[string]string     // volume → node ID; guarded by mu
	epoch    uint64                // routing-table version, bumped on every route change; guarded by mu
	draining map[string]bool       // decommissioning nodes: weigh zero, DrainStep empties them; guarded by mu
}

// NewManager returns a manager, restoring state from the snapshot at
// opts.SnapshotPath when one exists. Restored nodes are treated as just
// seen — a restarted manager gives the fleet one TTL of grace to
// heartbeat again instead of declaring everyone dead at once.
func NewManager(opts Options) (*Manager, error) {
	m := &Manager{
		ttl:          opts.TTL,
		now:          opts.Clock,
		snapshotPath: opts.SnapshotPath,
		nodes:        make(map[string]*nodeState),
		routes:       make(map[string]string),
		draining:     make(map[string]bool),
	}
	if m.ttl <= 0 {
		m.ttl = DefaultTTL
	}
	if m.now == nil {
		m.now = time.Now
	}
	if err := m.loadSnapshot(); err != nil {
		return nil, err
	}
	return m, nil
}

// NodeStat implements transport.ClusterHandler: ingest one heartbeat.
// First contact registers the node; membership and address changes are
// persisted, pressure signals are soft state.
func (m *Manager) NodeStat(stat transport.NodeStat) error {
	if stat.ID == "" || stat.Addr == "" {
		return errors.New("cluster: heartbeat without node id or address")
	}
	m.mu.Lock()
	n, known := m.nodes[stat.ID]
	durable := !known || n.stat.Addr != stat.Addr
	if !known {
		n = &nodeState{}
		m.nodes[stat.ID] = n
	}
	n.stat = stat
	n.lastSeen = m.now()
	obsHeartbeats.Inc()
	m.updateObsLocked()
	var err error
	if durable {
		err = m.saveSnapshotLocked()
	}
	m.mu.Unlock()
	return err
}

// Usage implements transport.ClusterHandler: fleet-wide per-tenant
// usage, aggregated across every node's last heartbeat. tenant "" means
// all tenants, sorted by ID for deterministic frames.
func (m *Manager) Usage(tenant string) ([]transport.TenantUsage, error) {
	m.mu.Lock()
	totals := make(map[string]transport.TenantUsage)
	for _, n := range m.nodes {
		for _, u := range n.stat.Tenants {
			t := totals[u.Tenant]
			t.Tenant = u.Tenant
			t.Bytes = satAdd(t.Bytes, u.Bytes)
			t.Blocks = satAdd(t.Blocks, u.Blocks)
			totals[u.Tenant] = t
		}
	}
	m.mu.Unlock()
	if tenant != "" {
		u, ok := totals[tenant]
		if !ok {
			return nil, nil
		}
		return []transport.TenantUsage{u}, nil
	}
	out := make([]transport.TenantUsage, 0, len(totals))
	for _, u := range totals {
		out = append(out, u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out, nil
}

// satAdd adds two non-negative counters, saturating at math.MaxInt64:
// one tenant's total overflowing must not turn into a negative entry
// that fails the whole usage reply.
func satAdd(a, b int64) int64 {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}

// RouteInfo is one volume's authoritative placement.
type RouteInfo struct {
	// Epoch is the routing-table version this answer reflects.
	Epoch uint64 `json:"epoch"`
	// Volume is the volume ID.
	Volume string `json:"volume"`
	// Node is the assigned node's ID.
	Node string `json:"node"`
	// Addr is the assigned node's dial address.
	Addr string `json:"addr"`
}

// Table is a full routing-table snapshot.
type Table struct {
	// Epoch is the routing-table version.
	Epoch uint64 `json:"epoch"`
	// Routes maps volume ID to the assigned node's dial address.
	Routes map[string]string `json:"routes"`
}

// NodeInfo is one node's membership view, for operators.
type NodeInfo struct {
	ID        string    `json:"id"`
	Addr      string    `json:"addr"`
	Alive     bool      `json:"alive"`
	Draining  bool      `json:"draining,omitempty"`
	LastSeen  time.Time `json:"lastSeen"`
	Capacity  int64     `json:"capacity"`
	Used      int64     `json:"used"`
	DeadBytes int64     `json:"deadBytes"`
	Volumes   int       `json:"volumes"`
}

func (m *Manager) aliveLocked(id string) bool {
	n, ok := m.nodes[id]
	return ok && m.now().Sub(n.lastSeen) <= m.ttl
}

// headroomLocked is a node's placement weight: free bytes, or
// unboundedHeadroom for capacity-unlimited nodes. Dead, full, and
// draining nodes weigh zero and are never chosen.
func (m *Manager) headroomLocked(id string) float64 {
	if !m.aliveLocked(id) || m.draining[id] {
		return 0
	}
	st := m.nodes[id].stat
	if st.Capacity == 0 {
		return unboundedHeadroom
	}
	free := st.Capacity - st.Used
	if free <= 0 {
		return 0
	}
	return float64(free)
}

// placeLocked assigns vol to the live node with the best weighted
// rendezvous score and bumps the epoch. The caller persists.
func (m *Manager) placeLocked(vol string) (string, error) {
	ids := make([]string, 0, len(m.nodes))
	for id := range m.nodes {
		ids = append(ids, id)
	}
	sort.Strings(ids) // deterministic candidate order (HRW ignores it, tests like it)
	candidates := make([]placement.Candidate, 0, len(ids))
	for _, id := range ids {
		candidates = append(candidates, placement.Candidate{ID: id, Weight: m.headroomLocked(id)})
	}
	win := m.placer.Pick(vol, candidates)
	if win < 0 {
		return "", ErrNoNodes
	}
	m.routes[vol] = candidates[win].ID
	m.epoch++
	obsPlacements.Inc()
	m.updateObsLocked()
	return candidates[win].ID, nil
}

func (m *Manager) routeInfoLocked(vol, node string) RouteInfo {
	return RouteInfo{Epoch: m.epoch, Volume: vol, Node: node, Addr: m.nodes[node].stat.Addr}
}

// Route returns vol's placement, assigning it on first sight
// (get-or-create) and re-placing it when its node is dead.
func (m *Manager) Route(vol string) (RouteInfo, error) {
	if vol == "" {
		return RouteInfo{}, errors.New("cluster: empty volume id")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	node, ok := m.routes[vol]
	if ok && m.aliveLocked(node) {
		return m.routeInfoLocked(vol, node), nil
	}
	node, err := m.placeLocked(vol)
	if err != nil {
		return RouteInfo{}, err
	}
	if err := m.saveSnapshotLocked(); err != nil {
		return RouteInfo{}, err
	}
	return m.routeInfoLocked(vol, node), nil
}

// MarkStale is a broker's routing-failure hint: "the node I route vol to
// at table epoch e is not answering". When the hint is current (the
// broker is not behind the table) and the node really is dead, the
// volume is re-placed; either way the authoritative route comes back, so
// one exchange both reports the failure and refreshes the caller.
func (m *Manager) MarkStale(vol string, epoch uint64) (RouteInfo, error) {
	if vol == "" {
		return RouteInfo{}, errors.New("cluster: empty volume id")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	obsStaleHints.Inc()
	node, ok := m.routes[vol]
	if ok && epoch >= m.epoch && !m.aliveLocked(node) {
		ok = false // current hint against a dead node: re-place below
	}
	if ok && m.aliveLocked(node) {
		return m.routeInfoLocked(vol, node), nil
	}
	node, err := m.placeLocked(vol)
	if err != nil {
		return RouteInfo{}, err
	}
	if err := m.saveSnapshotLocked(); err != nil {
		return RouteInfo{}, err
	}
	return m.routeInfoLocked(vol, node), nil
}

// TableSnapshot returns the full routing table with dial addresses.
// Routes to dead nodes are included as-is: re-placement happens on
// Route/MarkStale, not on reads.
func (m *Manager) TableSnapshot() Table {
	m.mu.Lock()
	defer m.mu.Unlock()
	t := Table{Epoch: m.epoch, Routes: make(map[string]string, len(m.routes))}
	for vol, node := range m.routes {
		if n, ok := m.nodes[node]; ok {
			t.Routes[vol] = n.stat.Addr
		}
	}
	return t
}

// Nodes returns the fleet view sorted by node ID.
func (m *Manager) Nodes() []NodeInfo {
	m.mu.Lock()
	defer m.mu.Unlock()
	perNode := make(map[string]int, len(m.nodes))
	for _, node := range m.routes {
		perNode[node]++
	}
	out := make([]NodeInfo, 0, len(m.nodes))
	for id, n := range m.nodes {
		out = append(out, NodeInfo{
			ID:        id,
			Addr:      n.stat.Addr,
			Alive:     m.aliveLocked(id),
			Draining:  m.draining[id],
			LastSeen:  n.lastSeen,
			Capacity:  n.stat.Capacity,
			Used:      n.stat.Used,
			DeadBytes: n.stat.DeadBytes,
			Volumes:   perNode[id],
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Epoch returns the current routing-table version.
func (m *Manager) Epoch() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.epoch
}

// SetDraining marks node id as decommissioning (or clears the mark). A
// draining node keeps serving reads but weighs zero for placement, and
// DrainStep progressively re-places its volumes. Unknown ids are
// accepted — an operator can mark a node before its first heartbeat.
// The mark persists in the snapshot.
func (m *Manager) SetDraining(id string, draining bool) error {
	if id == "" {
		return errors.New("cluster: empty node id")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if draining {
		m.draining[id] = true
	} else {
		delete(m.draining, id)
	}
	m.updateObsLocked()
	return m.saveSnapshotLocked()
}

// Draining returns the draining node ids, sorted.
func (m *Manager) Draining() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.draining))
	for id := range m.draining {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// DrainStep re-places up to max volumes currently routed to draining
// nodes (lowest volume IDs first, for deterministic progress) and
// reports how many moved. Only the routes move: cooperative repair
// regenerates each volume's blocks on its new home exactly as after a
// node death, so the drain is the proactive version of that path.
// (0, nil) means nothing is left to move. When no live node has
// headroom the step stops early and returns ErrNoNodes with whatever
// progress it made; the caller retries later.
func (m *Manager) DrainStep(max int) (int, error) {
	if max <= 0 {
		max = 16
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.draining) == 0 {
		return 0, nil
	}
	var vols []string
	for vol, node := range m.routes {
		if m.draining[node] {
			vols = append(vols, vol)
		}
	}
	sort.Strings(vols)
	moved := 0
	var stepErr error
	for _, vol := range vols {
		if moved >= max {
			break
		}
		if _, err := m.placeLocked(vol); err != nil {
			stepErr = err // no live node with headroom: stop, retry later
			break
		}
		moved++
	}
	if moved > 0 {
		if err := m.saveSnapshotLocked(); err != nil && stepErr == nil {
			stepErr = err
		}
	}
	return moved, stepErr
}

// snapshot is the persisted manager state: membership identities and
// the routing table. Heartbeat pressure signals are deliberately left
// out — they rebuild from the next heartbeat round.
type snapshot struct {
	Epoch    uint64            `json:"epoch"`
	Routes   map[string]string `json:"routes"`
	Nodes    []snapshotNode    `json:"nodes"`
	Draining []string          `json:"draining,omitempty"`
}

type snapshotNode struct {
	ID   string `json:"id"`
	Addr string `json:"addr"`
}

// saveSnapshotLocked atomically replaces the snapshot file. Callers
// hold m.mu.
func (m *Manager) saveSnapshotLocked() error {
	if m.snapshotPath == "" {
		return nil
	}
	snap := snapshot{Epoch: m.epoch, Routes: m.routes}
	ids := make([]string, 0, len(m.nodes))
	for id := range m.nodes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		snap.Nodes = append(snap.Nodes, snapshotNode{ID: id, Addr: m.nodes[id].stat.Addr})
	}
	drains := make([]string, 0, len(m.draining))
	for id := range m.draining {
		drains = append(drains, id)
	}
	sort.Strings(drains)
	snap.Draining = drains
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return fmt.Errorf("cluster: encoding snapshot: %w", err)
	}
	tmp := m.snapshotPath + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("cluster: writing snapshot: %w", err)
	}
	if err := os.Rename(tmp, m.snapshotPath); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("cluster: replacing snapshot: %w", err)
	}
	return nil
}

func (m *Manager) loadSnapshot() error {
	if m.snapshotPath == "" {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(m.snapshotPath), 0o755); err != nil {
		return fmt.Errorf("cluster: creating snapshot dir: %w", err)
	}
	data, err := os.ReadFile(m.snapshotPath)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("cluster: reading snapshot: %w", err)
	}
	var snap snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("cluster: decoding snapshot %s: %w", m.snapshotPath, err)
	}
	m.epoch = snap.Epoch
	now := m.now()
	for _, n := range snap.Nodes {
		m.nodes[n.ID] = &nodeState{
			stat:     transport.NodeStat{ID: n.ID, Addr: n.Addr},
			lastSeen: now, // one TTL of grace to heartbeat after a manager restart
		}
	}
	for vol, node := range snap.Routes {
		if _, ok := m.nodes[node]; ok {
			m.routes[vol] = node
		}
	}
	for _, id := range snap.Draining {
		m.draining[id] = true
	}
	return nil
}
