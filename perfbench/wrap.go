package main

import (
	"context"
	"fmt"
	"reflect"
	"strings"

	"aecodes/internal/cooperative"
	"aecodes/internal/lattice"
	"aecodes/internal/segstore"
	"aecodes/internal/store"
	"aecodes/internal/tenant"
	"aecodes/internal/transport"
)

// The timing wrappers below sit at the three seams a node stack
// exposes from outside — the NodeStore a broker is given, the store a
// transport server serves, the keyed backing a tenant registry wraps —
// plus the BlockStore an archive is written to. Each layer probes the
// store it is handed for optional interfaces at run time, so a wrapper
// must offer exactly the interfaces of what it wraps: one more or one
// fewer and the traced run would take another code path than the
// untraced one. sameInterfaces checks that when a wrapper is built, and
// the deterministic-count comparison of a traced run catches what the
// check cannot see.

// sameInterfaces returns an error naming the first optional interface
// that inner and outer do not both implement or both lack.
func sameInterfaces(what string, inner, outer any, ifaces ...reflect.Type) error {
	for _, it := range ifaces {
		a := reflect.TypeOf(inner).Implements(it)
		b := reflect.TypeOf(outer).Implements(it)
		if a != b {
			return fmt.Errorf("perfbench: %s wrapper changes %s (wrapped %v, wrapper %v)", what, it, a, b)
		}
	}
	return nil
}

func ifaceOf[T any]() reflect.Type { return reflect.TypeOf((*T)(nil)).Elem() }

// nodeAPI is what a broker can probe a node for; transport.PoolClient
// provides all of it.
type nodeAPI interface {
	cooperative.BatchNodeStore
	StatMany(ctx context.Context, keys []string) ([]bool, error)
	Hello(ctx context.Context, tenant string) error
}

// tracedNode times one client connection's round trips (transport
// layer, client side).
type tracedNode struct {
	t    *tracer
	lane uint8
	c    nodeAPI
}

func wrapNode(t *tracer, lane uint8, c nodeAPI) (cooperative.NodeStore, error) {
	w := &tracedNode{t: t, lane: lane, c: c}
	return w, sameInterfaces("node", c, w,
		ifaceOf[cooperative.BatchNodeStore](), ifaceOf[cooperative.StatNodeStore](), ifaceOf[cooperative.HelloNodeStore]())
}

func (w *tracedNode) Get(ctx context.Context, key string) ([]byte, error) {
	s := span{kind: kGet, lane: w.lane, start: w.t.now(), n: 1}
	b, err := w.c.Get(ctx, key)
	s.bytes = int64(len(b))
	w.t.add(s)
	return b, err
}

func (w *tracedNode) Put(ctx context.Context, key string, data []byte) error {
	s := span{kind: kPut, lane: w.lane, start: w.t.now(), n: 1, bytes: int64(len(data))}
	err := w.c.Put(ctx, key, data)
	w.t.add(s)
	return err
}

func (w *tracedNode) GetMany(ctx context.Context, keys []string) ([][]byte, error) {
	s := span{kind: kGetMany, lane: w.lane, start: w.t.now(), n: int64(len(keys))}
	bs, err := w.c.GetMany(ctx, keys)
	for _, b := range bs {
		s.bytes += int64(len(b))
		if b == nil {
			s.miss++
		}
	}
	w.t.add(s)
	return bs, err
}

func (w *tracedNode) PutMany(ctx context.Context, items []store.KV) error {
	s := span{kind: kPutMany, lane: w.lane, start: w.t.now(), n: int64(len(items))}
	for _, it := range items {
		s.bytes += int64(len(it.Data))
	}
	err := w.c.PutMany(ctx, items)
	w.t.add(s)
	return err
}

func (w *tracedNode) StatMany(ctx context.Context, keys []string) ([]bool, error) {
	s := span{kind: kStatMany, lane: w.lane, start: w.t.now(), n: int64(len(keys))}
	ok, err := w.c.StatMany(ctx, keys)
	w.t.add(s)
	return ok, err
}

func (w *tracedNode) Hello(ctx context.Context, tenant string) error {
	s := span{kind: kHello, lane: w.lane, start: w.t.now()}
	err := w.c.Hello(ctx, tenant)
	w.t.add(s)
	return err
}

// viewAPI is what a transport server can probe its store for;
// tenant.Store provides all of it.
type viewAPI interface {
	transport.OwnedBatchStore
	StatBatch(keys []string) []int
}

// tracedView times the server side of one tenant's connection (tenant
// layer: namespacing, quota admission and accounting, and whatever the
// backing below costs).
type tracedView struct {
	t    *tracer
	lane uint8
	v    viewAPI
}

func wrapView(t *tracer, lane uint8, v viewAPI) (transport.BlockStore, error) {
	w := &tracedView{t: t, lane: lane, v: v}
	return w, sameInterfaces("tenant view", v, w,
		ifaceOf[transport.BatchBlockStore](), ifaceOf[transport.OwnedBatchStore](), ifaceOf[transport.StatBlockStore]())
}

func (w *tracedView) Get(key string) ([]byte, bool) {
	s := span{kind: kTenantGet, lane: w.lane, start: w.t.now(), n: 1}
	b, ok := w.v.Get(key)
	w.t.add(s)
	return b, ok
}

func (w *tracedView) Put(key string, data []byte) error {
	s := span{kind: kTenantPut, lane: w.lane, start: w.t.now(), n: 1}
	err := w.v.Put(key, data)
	w.t.add(s)
	return err
}

func (w *tracedView) Del(key string) {
	s := span{kind: kTenantDel, lane: w.lane, start: w.t.now(), n: 1}
	w.v.Del(key)
	w.t.add(s)
}

func (w *tracedView) GetBatch(keys []string) [][]byte {
	s := span{kind: kTenantGet, lane: w.lane, start: w.t.now(), n: int64(len(keys))}
	bs := w.v.GetBatch(keys)
	w.t.add(s)
	return bs
}

func (w *tracedView) PutBatch(items []store.KV) error {
	s := span{kind: kTenantPut, lane: w.lane, start: w.t.now(), n: int64(len(items))}
	err := w.v.PutBatch(items)
	w.t.add(s)
	return err
}

func (w *tracedView) PutBatchOwned(items []store.KV) error {
	s := span{kind: kTenantPut, lane: w.lane, start: w.t.now(), n: int64(len(items))}
	err := w.v.PutBatchOwned(items)
	w.t.add(s)
	return err
}

func (w *tracedView) StatBatch(keys []string) []int {
	s := span{kind: kTenantStat, lane: w.lane, start: w.t.now(), n: int64(len(keys))}
	st := w.v.StatBatch(keys)
	w.t.add(s)
	return st
}

// tracedSeg times calls into the segment store. It serves two callers:
// the tenant registry (which probes for the batch, owned-batch, stat,
// size and enumerate extensions) and a segstore.Lattice view (which
// needs segstore.Backend). A call is charged to the lane of the tenant
// whose namespace its first key lies in.
type tracedSeg struct {
	t      *tracer
	s      *segstore.Store
	laneOf func(key string) uint8
}

func wrapSeg(t *tracer, s *segstore.Store, laneOf func(key string) uint8) (*tracedSeg, error) {
	w := &tracedSeg{t: t, s: s, laneOf: laneOf}
	return w, sameInterfaces("segstore", s, w,
		ifaceOf[tenant.KeyedBatch](), ifaceOf[tenant.KeyedOwnedBatch](), ifaceOf[tenant.KeyedStat](),
		ifaceOf[tenant.Sizer](), ifaceOf[tenant.Enumerable](), ifaceOf[segstore.Backend]())
}

func (w *tracedSeg) lane(keys ...string) uint8 {
	if len(keys) == 0 || w.laneOf == nil {
		return 0
	}
	return w.laneOf(keys[0])
}

func (w *tracedSeg) Get(key string) ([]byte, bool) {
	s := span{kind: kSegGet, lane: w.lane(key), start: w.t.now(), n: 1}
	b, ok := w.s.Get(key)
	if !ok {
		s.miss = 1
	}
	s.bytes = int64(len(b))
	w.t.add(s)
	return b, ok
}

func (w *tracedSeg) Put(key string, data []byte) error {
	s := span{kind: kSegPut, lane: w.lane(key), start: w.t.now(), n: 1, bytes: int64(len(data))}
	err := w.s.Put(key, data)
	w.t.add(s)
	return err
}

func (w *tracedSeg) Del(key string) {
	s := span{kind: kSegDel, lane: w.lane(key), start: w.t.now(), n: 1}
	w.s.Del(key)
	w.t.add(s)
}

func (w *tracedSeg) GetBatch(keys []string) [][]byte {
	s := span{kind: kSegGet, lane: w.lane(keys...), start: w.t.now(), n: int64(len(keys))}
	bs := w.s.GetBatch(keys)
	for _, b := range bs {
		if b == nil {
			s.miss++
		}
		s.bytes += int64(len(b))
	}
	w.t.add(s)
	return bs
}

func (w *tracedSeg) PutBatch(items []store.KV) error {
	s := w.putSpan(items)
	err := w.s.PutBatch(items)
	w.t.add(s)
	return err
}

func (w *tracedSeg) PutBatchOwned(items []store.KV) error {
	s := w.putSpan(items)
	err := w.s.PutBatchOwned(items)
	w.t.add(s)
	return err
}

func (w *tracedSeg) putSpan(items []store.KV) span {
	s := span{kind: kSegPut, n: int64(len(items))}
	if len(items) > 0 {
		s.lane = w.lane(items[0].Key)
	}
	for _, it := range items {
		s.bytes += int64(len(it.Data))
	}
	s.start = w.t.now()
	return s
}

func (w *tracedSeg) StatBatch(keys []string) []int {
	s := span{kind: kSegStat, lane: w.lane(keys...), start: w.t.now(), n: int64(len(keys))}
	st := w.s.StatBatch(keys)
	w.t.add(s)
	return st
}

func (w *tracedSeg) Size(key string) (int64, bool) {
	s := span{kind: kSegStat, lane: w.lane(key), start: w.t.now(), n: 1}
	n, ok := w.s.Size(key)
	w.t.add(s)
	return n, ok
}

func (w *tracedSeg) Each(fn func(key string, size int64) bool) {
	s := span{kind: kSegEach, start: w.t.now()}
	w.s.Each(fn)
	w.t.add(s)
}

// tenantLane maps a backing-store key to the lane of the tenant whose
// namespace holds it (lane 0 for keys outside every listed tenant).
func tenantLane(tenants []string) func(key string) uint8 {
	return func(key string) uint8 {
		rest, ok := strings.CutPrefix(key, tenant.Prefix)
		if !ok {
			return 0
		}
		for i, id := range tenants {
			if strings.HasPrefix(rest, id+"/") {
				return uint8(i)
			}
		}
		return 0
	}
}

// tracedArchive times the calls an archive writer's encode pipeline and
// an archive reader make into the block store: pipeline puts (sink),
// the reader's window prefetches, and the single-block fetches of its
// degraded reads. Prefetch entries missing inside the archive are the
// degraded reads the entangle decoder then serves.
type tracedArchive struct {
	t      *tracer
	s      store.BlockStore
	blocks int // archive length; prefetch misses beyond it are not degraded reads
}

func (w *tracedArchive) GetData(ctx context.Context, i int) ([]byte, error) {
	s := span{kind: kDegraded, start: w.t.now(), n: 1}
	b, err := w.s.GetData(ctx, i)
	w.t.add(s)
	return b, err
}

func (w *tracedArchive) GetParity(ctx context.Context, e lattice.Edge) ([]byte, error) {
	s := span{kind: kDegraded, start: w.t.now(), n: 1}
	b, err := w.s.GetParity(ctx, e)
	w.t.add(s)
	return b, err
}

func (w *tracedArchive) PutData(ctx context.Context, i int, b []byte) error {
	s := span{kind: kSink, start: w.t.now(), n: 1, bytes: int64(len(b))}
	err := w.s.PutData(ctx, i, b)
	w.t.add(s)
	return err
}

func (w *tracedArchive) PutParity(ctx context.Context, e lattice.Edge, b []byte) error {
	s := span{kind: kSink, start: w.t.now(), n: 1, bytes: int64(len(b))}
	err := w.s.PutParity(ctx, e, b)
	w.t.add(s)
	return err
}

func (w *tracedArchive) Missing(ctx context.Context) (store.Missing, error) {
	return w.s.Missing(ctx)
}

func (w *tracedArchive) GetMany(ctx context.Context, refs []store.Ref) ([][]byte, error) {
	s := span{kind: kPrefetch, start: w.t.now(), n: int64(len(refs))}
	bs, err := w.s.GetMany(ctx, refs)
	for i, b := range bs {
		if b == nil && !refs[i].Parity && refs[i].Index <= w.blocks {
			s.miss++
		}
	}
	w.t.add(s)
	return bs, err
}

func (w *tracedArchive) PutMany(ctx context.Context, blocks []store.Block) error {
	s := span{kind: kSink, start: w.t.now(), n: int64(len(blocks))}
	err := w.s.PutMany(ctx, blocks)
	w.t.add(s)
	return err
}
