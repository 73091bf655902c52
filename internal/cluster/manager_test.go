package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"aecodes/internal/transport"
)

// fakeClock is the deterministic time source every manager test runs on:
// liveness is pure arithmetic over it, so node death is a clock advance,
// not a sleep.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newTestManager(t *testing.T, clk *fakeClock, snapshot string) *Manager {
	t.Helper()
	m, err := NewManager(Options{TTL: 10 * time.Second, Clock: clk.Now, SnapshotPath: snapshot})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func beat(t *testing.T, m *Manager, id string, capacity, used int64) {
	t.Helper()
	err := m.NodeStat(transport.NodeStat{ID: id, Addr: "addr-" + id, Capacity: capacity, Used: used})
	if err != nil {
		t.Fatalf("heartbeat %s: %v", id, err)
	}
}

func aliveIDs(m *Manager) []string {
	var out []string
	for _, n := range m.Nodes() {
		if n.Alive {
			out = append(out, n.ID)
		}
	}
	return out
}

func TestManagerMembershipLiveness(t *testing.T) {
	clk := newFakeClock()
	m := newTestManager(t, clk, "")
	for _, id := range []string{"n1", "n2", "n3"} {
		beat(t, m, id, 0, 0)
	}
	if got := aliveIDs(m); len(got) != 3 {
		t.Fatalf("alive = %v, want 3 nodes", got)
	}
	clk.Advance(11 * time.Second)
	if got := aliveIDs(m); len(got) != 0 {
		t.Fatalf("alive after TTL expiry = %v, want none", got)
	}
	beat(t, m, "n2", 0, 0)
	if got := aliveIDs(m); len(got) != 1 || got[0] != "n2" {
		t.Fatalf("alive after n2 heartbeat = %v, want [n2]", got)
	}
	if err := m.NodeStat(transport.NodeStat{Addr: "addr-only"}); err == nil {
		t.Error("heartbeat without node ID accepted")
	}
	if err := m.NodeStat(transport.NodeStat{ID: "id-only"}); err == nil {
		t.Error("heartbeat without address accepted")
	}
}

func TestManagerRouteGetOrCreate(t *testing.T) {
	clk := newFakeClock()
	m := newTestManager(t, clk, "")
	if _, err := m.Route("alice/0"); !errors.Is(err, ErrNoNodes) {
		t.Fatalf("Route with empty fleet: %v, want ErrNoNodes", err)
	}
	beat(t, m, "n1", 0, 0)
	beat(t, m, "n2", 0, 0)
	first, err := m.Route("alice/0")
	if err != nil {
		t.Fatal(err)
	}
	if first.Node == "" || first.Addr != "addr-"+first.Node || first.Volume != "alice/0" {
		t.Fatalf("bad route: %+v", first)
	}
	again, err := m.Route("alice/0")
	if err != nil {
		t.Fatal(err)
	}
	if again != first {
		t.Fatalf("repeat Route moved the volume: %+v vs %+v", again, first)
	}
	if _, err := m.Route(""); err == nil {
		t.Error("empty volume ID routed")
	}
}

func TestManagerPlacementRespectsHeadroom(t *testing.T) {
	clk := newFakeClock()
	m := newTestManager(t, clk, "")
	beat(t, m, "full", 1000, 1000) // zero headroom: never a candidate
	beat(t, m, "roomy", 1000, 100)
	for i := 0; i < 50; i++ {
		ri, err := m.Route(fmt.Sprintf("u/%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if ri.Node != "roomy" {
			t.Fatalf("volume u/%d placed on %s, want roomy (full has no headroom)", i, ri.Node)
		}
	}
	// A dead node weighs zero too, even with headroom on its last report.
	clk.Advance(11 * time.Second)
	beat(t, m, "full", 1000, 500) // now has headroom and is the only live node
	ri, err := m.Route("u/new")
	if err != nil {
		t.Fatal(err)
	}
	if ri.Node != "full" {
		t.Fatalf("volume placed on dead node %s", ri.Node)
	}
}

// TestManagerDeathMovesOnlyDeadNodesVolumes pins the movement bound at
// the manager: a node death re-places exactly the volumes that lived on
// it — surviving nodes' volumes never move. Deterministic: fake clock,
// fixed IDs.
func TestManagerDeathMovesOnlyDeadNodesVolumes(t *testing.T) {
	const volumes = 300
	clk := newFakeClock()
	m := newTestManager(t, clk, "")
	fleet := []string{"n0", "n1", "n2", "n3", "n4"}
	for _, id := range fleet {
		beat(t, m, id, 0, 0)
	}
	before := make(map[string]string)
	for i := 0; i < volumes; i++ {
		vol := fmt.Sprintf("alice/%d", i)
		ri, err := m.Route(vol)
		if err != nil {
			t.Fatal(err)
		}
		before[vol] = ri.Node
	}
	perNode := make(map[string]int)
	for _, n := range before {
		perNode[n]++
	}
	for _, id := range fleet {
		if perNode[id] == 0 {
			t.Fatalf("node %s received no volumes: %v", id, perNode)
		}
	}
	epochBefore := m.Epoch()

	// n2 dies: everyone else keeps beating past its TTL.
	clk.Advance(6 * time.Second)
	for _, id := range fleet {
		if id != "n2" {
			beat(t, m, id, 0, 0)
		}
	}
	clk.Advance(6 * time.Second)
	for _, id := range fleet {
		if id != "n2" {
			beat(t, m, id, 0, 0)
		}
	}

	moved := 0
	for i := 0; i < volumes; i++ {
		vol := fmt.Sprintf("alice/%d", i)
		ri, err := m.Route(vol)
		if err != nil {
			t.Fatal(err)
		}
		if before[vol] == "n2" {
			if ri.Node == "n2" {
				t.Fatalf("volume %s still routed to dead node", vol)
			}
			moved++
		} else if ri.Node != before[vol] {
			t.Fatalf("volume %s moved %s→%s though its node survived", vol, before[vol], ri.Node)
		}
	}
	if moved != perNode["n2"] {
		t.Errorf("moved %d volumes, want exactly the dead node's %d", moved, perNode["n2"])
	}
	if m.Epoch() != epochBefore+uint64(moved) {
		t.Errorf("epoch advanced %d, want one bump per re-placement (%d)", m.Epoch()-epochBefore, moved)
	}
}

func TestManagerMarkStale(t *testing.T) {
	clk := newFakeClock()
	m := newTestManager(t, clk, "")
	beat(t, m, "n1", 0, 0)
	beat(t, m, "n2", 0, 0)
	ri, err := m.Route("bob/0")
	if err != nil {
		t.Fatal(err)
	}

	// Hint against a live node: the route stays put.
	same, err := m.MarkStale("bob/0", m.Epoch())
	if err != nil {
		t.Fatal(err)
	}
	if same.Node != ri.Node {
		t.Fatalf("stale hint moved a volume off a live node: %+v", same)
	}

	// The assigned node dies; a CURRENT hint re-places.
	clk.Advance(6 * time.Second)
	survivor := "n1"
	if ri.Node == "n1" {
		survivor = "n2"
	}
	beat(t, m, survivor, 0, 0)
	clk.Advance(6 * time.Second)
	beat(t, m, survivor, 0, 0)
	movedTo, err := m.MarkStale("bob/0", m.Epoch())
	if err != nil {
		t.Fatal(err)
	}
	if movedTo.Node != survivor {
		t.Fatalf("stale hint against dead node routed to %s, want %s", movedTo.Node, survivor)
	}

	// A BEHIND hint never re-places: the caller refreshes instead.
	ri2, err := m.Route("bob/1")
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.MarkStale("bob/1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Node != ri2.Node {
		t.Fatalf("behind-epoch hint moved volume: %+v", got)
	}
	// And an unknown volume is get-or-create, like Route.
	if ri3, err := m.MarkStale("bob/new", 0); err != nil || ri3.Node != survivor {
		t.Fatalf("MarkStale on unknown volume: %+v, %v", ri3, err)
	}
}

func TestManagerUsageAggregation(t *testing.T) {
	clk := newFakeClock()
	m := newTestManager(t, clk, "")
	stat := func(id string, tenants ...transport.TenantUsage) transport.NodeStat {
		return transport.NodeStat{ID: id, Addr: "addr-" + id, Tenants: tenants}
	}
	if err := m.NodeStat(stat("n1",
		transport.TenantUsage{Tenant: "acme", Bytes: 100, Blocks: 2},
		transport.TenantUsage{Tenant: "zeta", Bytes: 10, Blocks: 1},
	)); err != nil {
		t.Fatal(err)
	}
	if err := m.NodeStat(stat("n2",
		transport.TenantUsage{Tenant: "acme", Bytes: 50, Blocks: 1},
	)); err != nil {
		t.Fatal(err)
	}
	all, err := m.Usage("")
	if err != nil {
		t.Fatal(err)
	}
	want := []transport.TenantUsage{
		{Tenant: "acme", Bytes: 150, Blocks: 3},
		{Tenant: "zeta", Bytes: 10, Blocks: 1},
	}
	if len(all) != 2 || all[0] != want[0] || all[1] != want[1] {
		t.Fatalf("Usage(all) = %+v, want %+v", all, want)
	}
	one, err := m.Usage("acme")
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 1 || one[0] != want[0] {
		t.Fatalf("Usage(acme) = %+v", one)
	}
	none, err := m.Usage("ghost")
	if err != nil {
		t.Fatal(err)
	}
	if len(none) != 0 {
		t.Fatalf("Usage(ghost) = %+v, want empty", none)
	}
}

// TestManagerUsageSaturatesOverWire pins the fleet-wide usage sum at
// math.MaxInt64: two heartbeats whose bytes for one tenant add past
// int64 must not fail the usage reply for every tenant.
func TestManagerUsageSaturatesOverWire(t *testing.T) {
	h := newManagerHarness(t)
	c, err := transport.DialPool(h.addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	ctx := context.Background()
	half := int64(math.MaxInt64/2 + 1)
	for _, id := range []string{"n1", "n2"} {
		err := c.NodeStat(ctx, transport.NodeStat{ID: id, Addr: "addr-" + id, Tenants: []transport.TenantUsage{
			{Tenant: "acme", Bytes: half, Blocks: 1},
			{Tenant: "bob", Bytes: 10, Blocks: 1},
		}})
		if err != nil {
			t.Fatalf("heartbeat %s: %v", id, err)
		}
	}
	all, err := c.Usage(ctx, "")
	if err != nil {
		t.Fatalf("Usage(all): %v", err)
	}
	want := []transport.TenantUsage{
		{Tenant: "acme", Bytes: math.MaxInt64, Blocks: 2},
		{Tenant: "bob", Bytes: 20, Blocks: 2},
	}
	if !reflect.DeepEqual(all, want) {
		t.Fatalf("Usage(all) = %+v, want %+v", all, want)
	}
	one, err := c.Usage(ctx, "acme")
	if err != nil || !reflect.DeepEqual(one, want[:1]) {
		t.Fatalf("Usage(acme) = %+v, %v; want %+v", one, err, want[:1])
	}
}

func TestManagerSnapshotSurvivesRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cluster", "state.json")
	clk := newFakeClock()
	m := newTestManager(t, clk, path)
	beat(t, m, "n1", 0, 0)
	beat(t, m, "n2", 0, 0)
	ri, err := m.Route("carol/0")
	if err != nil {
		t.Fatal(err)
	}
	epoch := m.Epoch()

	// Restart: same snapshot path, fresh clock. Restored nodes get one
	// TTL of grace, so the route resolves before any new heartbeat.
	clk2 := newFakeClock()
	m2 := newTestManager(t, clk2, path)
	if m2.Epoch() != epoch {
		t.Fatalf("epoch after restart = %d, want %d", m2.Epoch(), epoch)
	}
	ri2, err := m2.Route("carol/0")
	if err != nil {
		t.Fatal(err)
	}
	if ri2.Node != ri.Node || ri2.Addr != ri.Addr {
		t.Fatalf("route after restart = %+v, want node %s", ri2, ri.Node)
	}
	if got := aliveIDs(m2); len(got) != 2 {
		t.Fatalf("restored fleet alive = %v, want both (grace period)", got)
	}
	// Grace expires without heartbeats: the fleet is dead.
	clk2.Advance(11 * time.Second)
	if got := aliveIDs(m2); len(got) != 0 {
		t.Fatalf("restored fleet alive after grace = %v, want none", got)
	}
}

func TestManagerStoreServesReservedKeys(t *testing.T) {
	clk := newFakeClock()
	m := newTestManager(t, clk, "")
	beat(t, m, "n1", 0, 0)
	s := m.Store()

	if _, ok := s.Get("!cluster/nope"); ok {
		t.Error("unknown reserved key served")
	}
	if _, ok := s.Get("alice-d1"); ok {
		t.Error("block key served by routing store")
	}
	if err := s.Put(KeyTable, []byte("{}")); err == nil {
		t.Error("Put accepted by read-only routing store")
	}
	s.Del(KeyTable) // must be a no-op, not a panic

	payload, ok := s.Get(KeyRoutePrefix + "dave/3")
	if !ok {
		t.Fatal("route key not served")
	}
	var ri RouteInfo
	if err := json.Unmarshal(payload, &ri); err != nil {
		t.Fatal(err)
	}
	if ri.Volume != "dave/3" || ri.Node != "n1" || ri.Addr != "addr-n1" {
		t.Fatalf("served route = %+v", ri)
	}

	payload, ok = s.Get(KeyTable)
	if !ok {
		t.Fatal("table key not served")
	}
	var tab Table
	if err := json.Unmarshal(payload, &tab); err != nil {
		t.Fatal(err)
	}
	if tab.Routes["dave/3"] != "addr-n1" || tab.Epoch != m.Epoch() {
		t.Fatalf("served table = %+v", tab)
	}

	payload, ok = s.Get(KeyNodes)
	if !ok {
		t.Fatal("nodes key not served")
	}
	var nodes []NodeInfo
	if err := json.Unmarshal(payload, &nodes); err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 1 || nodes[0].ID != "n1" || !nodes[0].Alive || nodes[0].Volumes != 1 {
		t.Fatalf("served nodes = %+v", nodes)
	}

	stale := StaleKey(m.Epoch(), "dave/3")
	if !strings.HasPrefix(stale, KeyStalePrefix) {
		t.Fatalf("StaleKey = %q", stale)
	}
	payload, ok = s.Get(stale)
	if !ok {
		t.Fatal("stale key not served")
	}
	if err := json.Unmarshal(payload, &ri); err != nil {
		t.Fatal(err)
	}
	if ri.Node != "n1" {
		t.Fatalf("stale exchange moved volume off live node: %+v", ri)
	}
	if _, ok := s.Get(KeyStalePrefix + "notanumber/dave/3"); ok {
		t.Error("malformed stale epoch served")
	}
	if _, ok := s.Get(KeyStalePrefix + "42"); ok {
		t.Error("stale key without volume served")
	}
}
