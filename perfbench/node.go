package main

import (
	"context"
	"errors"
	"fmt"

	"aecodes/internal/cooperative"
	"aecodes/internal/lattice"
	"aecodes/internal/segstore"
	"aecodes/internal/tenant"
	"aecodes/internal/transport"
)

// node is one in-process storage node with aestored's multi-tenant
// stack: transport.Server → tenant.Registry → segstore.Store, serving
// on loopback TCP.
type node struct {
	seg  *segstore.Store
	reg  *tenant.Registry
	srv  *transport.Server
	addr string
}

// quota is every benchmark tenant's byte cap: set, so admission runs,
// but far above anything a run can write.
const quota = 1 << 40

// startNode opens a segment store in dir (default options: Sync off)
// and serves it. With a tracer, the segstore backing and every tenant
// view are wrapped in timing wrappers; tenants lists the tenant IDs in
// lane order.
func startNode(dir string, tenants []string, t *tracer) (*node, error) {
	seg, err := segstore.Open(dir, segstore.Options{})
	if err != nil {
		return nil, err
	}
	var backing tenant.Keyed = seg
	if t != nil {
		w, err := wrapSeg(t, seg, tenantLane(tenants))
		if err != nil {
			seg.Close()
			return nil, err
		}
		backing = w
	}
	cfg := tenant.Config{Tenants: map[string]tenant.Quota{}, Strict: true}
	for _, id := range tenants {
		cfg.Tenants[id] = tenant.Quota{MaxBytes: quota}
	}
	reg, err := tenant.NewRegistry(backing, cfg)
	if err != nil {
		seg.Close()
		return nil, err
	}
	anon, err := reg.Open(tenant.Anonymous)
	if err != nil {
		seg.Close()
		return nil, err
	}
	srv, err := transport.NewServer(anon)
	if err != nil {
		seg.Close()
		return nil, err
	}
	srv.SetTenantResolver(func(id string) (transport.BlockStore, error) {
		h, err := reg.Open(id)
		if err != nil || t == nil {
			return h, err
		}
		lane := 0
		for i, known := range tenants {
			if known == id {
				lane = i
			}
		}
		return wrapView(t, uint8(lane), h)
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		seg.Close()
		return nil, err
	}
	return &node{seg: seg, reg: reg, srv: srv, addr: addr}, nil
}

// close stops serving and closes the store; it waits for every
// connection goroutine to end.
func (n *node) close() error {
	err := n.srv.Close()
	return errors.Join(err, n.seg.Close())
}

// client is one user's broker with its own one-connection pools.
type client struct {
	broker *cooperative.Broker
	pools  []*transport.PoolClient
}

// dialBroker connects one user to the nodes with one pooled connection
// each and announces the tenant credential.
func dialBroker(ctx context.Context, user, tenantID string, lane uint8, nodes []*node, t *tracer) (*client, error) {
	c := &client{}
	stores := make([]cooperative.NodeStore, 0, len(nodes))
	for _, n := range nodes {
		p, err := transport.DialPool(n.addr, 1)
		if err != nil {
			c.close()
			return nil, err
		}
		c.pools = append(c.pools, p)
		var ns cooperative.NodeStore = p
		if t != nil {
			if ns, err = wrapNode(t, lane, p); err != nil {
				c.close()
				return nil, err
			}
		}
		stores = append(stores, ns)
	}
	b, err := cooperative.NewBroker(user, params, blockSize, stores)
	if err != nil {
		c.close()
		return nil, err
	}
	if err := b.SetCredential(ctx, tenantID); err != nil {
		c.close()
		return nil, fmt.Errorf("perfbench: credential %s: %w", tenantID, err)
	}
	c.broker = b
	return c, nil
}

func (c *client) close() {
	for _, p := range c.pools {
		p.Close()
	}
}

// params and blockSize are the code every workload runs: AE(3,2,5)
// with 64 KiB blocks.
var params = lattice.Params{Alpha: 3, S: 2, P: 5}

const blockSize = 64 << 10
