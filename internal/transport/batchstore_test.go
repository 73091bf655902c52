package transport

import (
	"bytes"
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"aecodes/internal/store"
)

// countingBatchStore wraps MemStore and counts which server path each
// operation takes.
type countingBatchStore struct {
	*MemStore
	gets           atomic.Int64
	puts           atomic.Int64
	getBatches     atomic.Int64
	putBatches     atomic.Int64
	putBatchOwneds atomic.Int64
}

func (c *countingBatchStore) Get(key string) ([]byte, bool) {
	c.gets.Add(1)
	return c.MemStore.Get(key)
}

func (c *countingBatchStore) Put(key string, data []byte) error {
	c.puts.Add(1)
	return c.MemStore.Put(key, data)
}

func (c *countingBatchStore) GetBatch(keys []string) [][]byte {
	c.getBatches.Add(1)
	return c.MemStore.GetBatch(keys)
}

func (c *countingBatchStore) PutBatch(items []store.KV) error {
	c.putBatches.Add(1)
	return c.MemStore.PutBatch(items)
}

func (c *countingBatchStore) PutBatchOwned(items []store.KV) error {
	c.putBatchOwneds.Add(1)
	return c.MemStore.PutBatchOwned(items)
}

// TestServerUsesNativeBatchStore pins that a batch frame served over a
// BatchBlockStore is applied with ONE store call — the property that
// gives a durable backend one lock acquisition and one fsync per frame.
func TestServerUsesNativeBatchStore(t *testing.T) {
	cbs := &countingBatchStore{MemStore: NewMemStore()}
	srv, err := NewServer(cbs)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := DialPool(addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	items := []KV{
		{Key: "a", Data: []byte("aa")},
		{Key: "b", Data: []byte("bb")},
		{Key: "c", Data: nil},
	}
	if err := c.PutMany(ctx, items); err != nil {
		t.Fatal(err)
	}
	// The store declares the ownership-transfer contract (via the
	// embedded MemStore), so the server must prefer the owned seam —
	// still exactly one store call for the whole frame.
	if got := cbs.putBatchOwneds.Load(); got != 1 {
		t.Errorf("PutMany frame made %d PutBatchOwned calls, want 1", got)
	}
	if got := cbs.putBatches.Load(); got != 0 {
		t.Errorf("PutMany frame made %d direct PutBatch calls, want 0", got)
	}
	if got := cbs.puts.Load(); got != 0 {
		t.Errorf("PutMany frame fell back to %d single Puts", got)
	}

	blocks, err := c.GetMany(ctx, []string{"a", "missing", "c", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if got := cbs.getBatches.Load(); got != 1 {
		t.Errorf("GetMany frame made %d GetBatch calls, want 1", got)
	}
	if got := cbs.gets.Load(); got != 0 {
		t.Errorf("GetMany frame fell back to %d single Gets", got)
	}
	if !bytes.Equal(blocks[0], []byte("aa")) || !bytes.Equal(blocks[3], []byte("bb")) {
		t.Errorf("batch contents wrong: %q %q", blocks[0], blocks[3])
	}
	if blocks[1] != nil {
		t.Error("missing key non-nil")
	}
	if blocks[2] == nil || len(blocks[2]) != 0 {
		t.Errorf("stored empty block = %#v, want non-nil empty", blocks[2])
	}

	// Single ops still take the single-op path.
	if _, err := c.Get(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	if got := cbs.gets.Load(); got != 1 {
		t.Errorf("single Get made %d store Gets, want 1", got)
	}
}

// TestPutBatchOwnedConsumesBuffers pins the ownership-transfer seam at
// the store level: the moment PutBatchOwned returns, the caller may
// scribble over (and recycle) every Data slice — exactly what the
// server does with its pooled receive arena — without disturbing what
// was stored.
func TestPutBatchOwnedConsumesBuffers(t *testing.T) {
	s := NewMemStore()
	arena := make([]byte, 64)
	items := []store.KV{
		{Key: "a", Data: arena[:32]},
		{Key: "b", Data: arena[32:]},
	}
	for i := range arena {
		arena[i] = byte(i)
	}
	want := append([]byte(nil), arena...)
	if err := s.PutBatchOwned(items); err != nil {
		t.Fatal(err)
	}
	for i := range arena {
		arena[i] = 0xEE
	}
	a, _ := s.Get("a")
	b, _ := s.Get("b")
	if !bytes.Equal(a, want[:32]) || !bytes.Equal(b, want[32:]) {
		t.Error("PutBatchOwned retained the caller's arena: stored blocks changed after recycle-scribble")
	}
}

// plainStore is a minimal BlockStore with NO batch methods, so the
// server must serve batch frames through the per-entry fallback. Its
// Get returns (nil, true) for present empty blocks — the legal shape
// the fallback must normalise to "present", not "missing".
type plainStore struct {
	mu sync.Mutex
	m  map[string][]byte
}

func (p *plainStore) Get(key string) ([]byte, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	b, ok := p.m[key]
	return b, ok // may be (nil, true): stored as nil
}

func (p *plainStore) Put(key string, data []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.m == nil {
		p.m = make(map[string][]byte)
	}
	if data == nil {
		p.m[key] = nil
		return nil
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	p.m[key] = cp
	return nil
}

func (p *plainStore) Del(key string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.m, key)
}

// TestServerBatchFallbackOnPlainStore pins the per-entry fallback for
// stores without native batches, including the present-but-empty
// normalisation: a block stored as nil is reported found with zero
// bytes, never as missing.
func TestServerBatchFallbackOnPlainStore(t *testing.T) {
	srv, err := NewServer(&plainStore{})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := DialPool(addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	if err := c.PutMany(ctx, []KV{
		{Key: "full", Data: []byte("content")},
		{Key: "empty", Data: nil},
	}); err != nil {
		t.Fatal(err)
	}
	blocks, err := c.GetMany(ctx, []string{"full", "empty", "missing"})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blocks[0], []byte("content")) {
		t.Errorf("fallback GetMany lost content: %q", blocks[0])
	}
	if blocks[1] == nil || len(blocks[1]) != 0 {
		t.Errorf("present-but-empty block = %#v, want non-nil empty (missing/present distinction)", blocks[1])
	}
	if blocks[2] != nil {
		t.Error("missing key came back non-nil")
	}
}
