// Cluster operations: OpNodeStat and OpUsage are the control-plane ops
// behind the cluster manager (internal/cluster). OpNodeStat is a storage
// node's heartbeat — capacity, live bytes, segment-store pressure and the
// per-tenant usage signals the tenant registry computes — sent to a
// manager that tracks membership and places lattice volumes. OpUsage
// answers per-tenant byte/block usage: a node reports its own registry's
// accounting, a manager the fleet-wide aggregate, so operators and
// brokers read usage instead of guessing it from quota refusals.
//
// Both ride the control codec (control.go). A heartbeat's key is the
// node ID and its body the JSON NodeStat; a usage query is bodiless,
// keyed by tenant ("" = all), and its reply is the JSON usageReply.
package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
)

// TenantUsage is one tenant's live footprint as carried by heartbeat and
// usage frames. The anonymous tenant travels under the empty ID.
type TenantUsage struct {
	// Tenant is the tenant ID ("" = anonymous).
	Tenant string `json:"tenant"`
	// Bytes is the tenant's live block payload bytes.
	Bytes int64 `json:"bytes"`
	// Blocks is the tenant's live block count.
	Blocks int64 `json:"blocks"`
}

// NodeStat is one storage node's heartbeat: identity, capacity and the
// pressure signals a cluster manager places lattice volumes by.
type NodeStat struct {
	// ID names the node; it travels as the heartbeat frame's key.
	ID string `json:"-"`
	// Addr is the address brokers should dial to reach the node.
	Addr string `json:"addr"`
	// Capacity is the node's configured byte capacity; 0 means
	// unbounded (the node never refuses for space).
	Capacity int64 `json:"capacity"`
	// Used is the node's live payload bytes across all tenants.
	Used int64 `json:"used"`
	// Segments is the durable log's segment-file count (0 when the node
	// is memory-only).
	Segments int64 `json:"segments"`
	// DeadBytes is the reclaimable log space — the node's compaction
	// pressure.
	DeadBytes int64 `json:"deadBytes"`
	// Tenants carries the per-tenant usage the node's registry
	// computes; empty on single-tenant nodes.
	Tenants []TenantUsage `json:"tenants"`
}

func (s NodeStat) validate() error {
	if s.ID == "" {
		return errors.New("transport: heartbeat without a node id")
	}
	if len(s.Addr) > MaxKeyLen {
		return fmt.Errorf("transport: node address too long (%d bytes)", len(s.Addr))
	}
	for _, v := range []int64{s.Capacity, s.Used, s.Segments, s.DeadBytes} {
		if v < 0 {
			return fmt.Errorf("transport: negative counter %d in heartbeat", v)
		}
	}
	return validateUsages(s.Tenants)
}

// usageReply is the OpUsage response body.
type usageReply struct {
	Tenants []TenantUsage `json:"tenants"`
}

func (r usageReply) validate() error { return validateUsages(r.Tenants) }

// validateUsages holds a usage list to the limits both control bodies
// share: at most MaxBatchEntries entries, bounded IDs, no negative
// counters.
func validateUsages(usages []TenantUsage) error {
	if len(usages) > MaxBatchEntries {
		return fmt.Errorf("transport: %d usage entries exceed limit %d", len(usages), MaxBatchEntries)
	}
	for _, u := range usages {
		if len(u.Tenant) > MaxKeyLen {
			return fmt.Errorf("transport: tenant id too long (%d bytes)", len(u.Tenant))
		}
		if u.Bytes < 0 || u.Blocks < 0 {
			return fmt.Errorf("transport: negative usage for tenant %q", u.Tenant)
		}
	}
	return nil
}

// ClusterHandler is the optional server extension behind OpNodeStat and
// OpUsage. A cluster manager accepts heartbeats and serves fleet-wide
// usage; a storage node typically refuses heartbeats and serves its own
// registry's usage. Implementations must be safe for concurrent use.
type ClusterHandler interface {
	// NodeStat ingests one heartbeat.
	NodeStat(stat NodeStat) error
	// Usage returns per-tenant usage: the named tenant's (one entry, or
	// none when unknown), or every tenant's when tenant is "".
	Usage(tenant string) ([]TenantUsage, error)
}

// SetClusterHandler enables the cluster ops: OpNodeStat heartbeats and
// OpUsage queries are answered by h. Without a handler (the default)
// both ops are refused with StatusError. Call before Listen.
func (s *Server) SetClusterHandler(h ClusterHandler) {
	s.mu.Lock()
	s.cluster = h
	s.mu.Unlock()
}

func (s *Server) clusterHandler() ClusterHandler {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cluster
}

// serveNodeStat handles one heartbeat frame.
func (s *Server) serveNodeStat(conn net.Conn, key string, payload []byte) error {
	h := s.clusterHandler()
	if h == nil {
		return writeResponse(conn, StatusError, []byte("transport: node does not accept heartbeats"))
	}
	stat := NodeStat{ID: key}
	if err := decodeControl(payload, &stat); err != nil {
		return writeResponse(conn, StatusError, []byte(err.Error()))
	}
	if herr := h.NodeStat(stat); herr != nil {
		return writeResponse(conn, storeStatus(herr), []byte(herr.Error()))
	}
	return writeResponse(conn, StatusOK, nil)
}

// serveUsage handles one usage query; the frame key names the tenant
// ("" = all tenants).
func (s *Server) serveUsage(conn net.Conn, tenant string, payload []byte) error {
	h := s.clusterHandler()
	if h == nil {
		return writeResponse(conn, StatusError, []byte("transport: node does not serve usage"))
	}
	if err := decodeControl(payload, nil); err != nil {
		return writeResponse(conn, StatusError, []byte(err.Error()))
	}
	usages, err := h.Usage(tenant)
	if err != nil {
		return writeResponse(conn, storeStatus(err), []byte(err.Error()))
	}
	resp, err := encodeControl(usageReply{Tenants: usages})
	if err != nil {
		return writeResponse(conn, StatusError, []byte(err.Error()))
	}
	return writeResponse(conn, StatusOK, resp)
}

// NodeStat sends one heartbeat; stat.ID travels as the frame key.
func (p *PoolClient) NodeStat(ctx context.Context, stat NodeStat) error {
	payload, err := encodeControl(stat)
	if err != nil {
		return err
	}
	return p.withConn(ctx, func(c *pipeConn) error {
		status, resp, err := c.roundTrip(ctx, OpNodeStat, stat.ID, payload)
		if err != nil {
			return err
		}
		return ackError(status, resp)
	})
}

// Usage fetches per-tenant usage from the node: the named tenant's, or
// every tenant's when tenant is "".
func (p *PoolClient) Usage(ctx context.Context, tenant string) ([]TenantUsage, error) {
	return withConnValue(ctx, p, func(c *pipeConn) ([]TenantUsage, error) {
		var reply usageReply
		err := queryControl(ctx, c, OpUsage, tenant, &reply)
		return reply.Tenants, err
	})
}
