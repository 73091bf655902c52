package entangle

import (
	"bytes"
	"context"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"aecodes/internal/lattice"
	"aecodes/internal/store"
)

// countingStore wraps a BlockStore and counts every call per method, so
// tests can pin the engine's traffic shape exactly.
type countingStore struct {
	inner store.BlockStore

	mu        sync.Mutex
	getData   int
	getParity int
	getMany   int
	putMany   int
	missing   int
	fetched   map[store.Ref]int // refs requested through GetMany
}

var _ store.BlockStore = (*countingStore)(nil)

func (c *countingStore) bump(n *int) {
	c.mu.Lock()
	*n++
	c.mu.Unlock()
}

func (c *countingStore) GetData(ctx context.Context, i int) ([]byte, error) {
	c.bump(&c.getData)
	return c.inner.GetData(ctx, i)
}

func (c *countingStore) GetParity(ctx context.Context, e lattice.Edge) ([]byte, error) {
	c.bump(&c.getParity)
	return c.inner.GetParity(ctx, e)
}

func (c *countingStore) PutData(ctx context.Context, i int, b []byte) error {
	return c.inner.PutData(ctx, i, b)
}

func (c *countingStore) PutParity(ctx context.Context, e lattice.Edge, b []byte) error {
	return c.inner.PutParity(ctx, e, b)
}

func (c *countingStore) GetMany(ctx context.Context, refs []store.Ref) ([][]byte, error) {
	c.mu.Lock()
	c.getMany++
	if c.fetched == nil {
		c.fetched = make(map[store.Ref]int)
	}
	for _, ref := range refs {
		c.fetched[ref]++
	}
	c.mu.Unlock()
	return c.inner.GetMany(ctx, refs)
}

func (c *countingStore) PutMany(ctx context.Context, blocks []store.Block) error {
	c.bump(&c.putMany)
	return c.inner.PutMany(ctx, blocks)
}

func (c *countingStore) Missing(ctx context.Context) (store.Missing, error) {
	c.bump(&c.missing)
	return c.inner.Missing(ctx)
}

func (c *countingStore) counts() (getData, getParity, getMany, putMany, missing int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.getData, c.getParity, c.getMany, c.putMany, c.missing
}

// buildDamagedStore entangles n random blocks into a MemoryStore and marks
// a fraction of data and parity blocks lost. It returns the store and the
// originals (1-based).
func buildDamagedStore(t *testing.T, params lattice.Params, n, blockSize int, lossFrac float64, seed int64) (*MemoryStore, [][]byte) {
	t.Helper()
	enc, err := NewEncoder(params, blockSize)
	if err != nil {
		t.Fatal(err)
	}
	st := NewMemoryStore(blockSize)
	rng := rand.New(rand.NewSource(seed))
	originals := make([][]byte, n+1)
	for i := 1; i <= n; i++ {
		data := make([]byte, blockSize)
		rng.Read(data)
		originals[i] = data
		ent, err := enc.Entangle(data)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.PutData(context.Background(), ent.Index, data); err != nil {
			t.Fatal(err)
		}
		for _, p := range ent.Parities {
			if err := st.PutParity(context.Background(), p.Edge, p.Data); err != nil {
				t.Fatal(err)
			}
		}
	}
	lat := enc.Lattice()
	for i := 1; i <= n; i++ {
		if rng.Float64() < lossFrac {
			st.LoseData(i)
		}
		for _, class := range lat.Classes() {
			if rng.Float64() < lossFrac {
				if e, err := lat.OutEdge(class, i); err == nil {
					st.LoseParity(e)
				}
			}
		}
	}
	return st, originals
}

// TestRepairRoundPrefetchShape pins the engine-level traffic shape on a
// stable backend: one opening and one closing Missing sweep per run, at
// most one GetMany prefetch per productive round, no ref fetched twice
// (the snapshot carries every block across rounds), planning never reads
// single blocks from the store, and each productive round commits
// exactly one PutMany.
func TestRepairRoundPrefetchShape(t *testing.T) {
	for _, workers := range []int{1, 4} {
		st, originals := buildDamagedStore(t, lattice.Params{Alpha: 3, S: 2, P: 5}, 150, 64, 0.3, int64(41+workers))
		cs := &countingStore{inner: st}
		rep, err := NewRepairer(lattice.Params{Alpha: 3, S: 2, P: 5})
		if err != nil {
			t.Fatal(err)
		}
		stats, err := rep.Repair(context.Background(), cs, Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(stats.UnrepairedData) != 0 {
			t.Fatalf("workers=%d: %d data blocks unrepaired", workers, len(stats.UnrepairedData))
		}
		getData, getParity, getMany, putMany, missing := cs.counts()
		if stats.Rounds < 2 {
			t.Fatalf("workers=%d: %d rounds, want a multi-round repair to pin cross-round reuse", workers, stats.Rounds)
		}
		if missing != 2 {
			t.Errorf("workers=%d: %d Missing calls over %d rounds, want 2 (one opening, one closing sweep)",
				workers, missing, stats.Rounds)
		}
		if getMany > stats.Rounds {
			t.Errorf("workers=%d: %d GetMany prefetches over %d productive rounds, want at most one per round",
				workers, getMany, stats.Rounds)
		}
		for ref, n := range cs.fetched {
			if n > 1 {
				t.Errorf("workers=%d: %v fetched %d times in one run, want once", workers, ref, n)
			}
		}
		if putMany != stats.Rounds {
			t.Errorf("workers=%d: %d PutMany commits over %d rounds, want exactly one per round",
				workers, putMany, stats.Rounds)
		}
		if getData != 0 || getParity != 0 {
			t.Errorf("workers=%d: planning read %d data + %d parity single blocks from the store, want 0 (round cache bypassed)",
				workers, getData, getParity)
		}
		for i := 1; i <= 150; i++ {
			got, err := st.GetData(context.Background(), i)
			if err != nil {
				t.Fatalf("workers=%d: d%d unavailable after repair: %v", workers, i, err)
			}
			if !bytes.Equal(got, originals[i]) {
				t.Fatalf("workers=%d: d%d corrupted by repair", workers, i)
			}
		}
	}
}

// TestRepairPrefetchSnapshotIsolation pins that planning reads only the
// prefetched snapshot: blocks lost after the prefetch (mid-round faults)
// do not change what the round's planners see, so the round still commits
// what the frozen pre-round state allowed.
func TestRepairPrefetchSnapshotIsolation(t *testing.T) {
	params := lattice.Params{Alpha: 3, S: 2, P: 5}
	st, _ := buildDamagedStore(t, params, 60, 32, 0, 9)
	st.LoseData(10)

	// losingStore drops a parity from the backend the moment the round's
	// prefetch completes; a snapshot-reading planner must not notice.
	ls := &losingStore{MemoryStore: st, lose: func() {
		lat, _ := lattice.New(params)
		for _, class := range lat.Classes() {
			if e, err := lat.OutEdge(class, 10); err == nil {
				st.LoseParity(e)
			}
		}
	}}
	rep, err := NewRepairer(params)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := rep.Repair(context.Background(), ls, Options{MaxRounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if stats.DataRepaired != 1 {
		t.Fatalf("repaired %d data blocks, want 1 (snapshot should shield planning from the mid-round loss)", stats.DataRepaired)
	}
}

// losingStore triggers lose once, after the first GetMany returns.
type losingStore struct {
	*MemoryStore
	once sync.Once
	lose func()
}

func (l *losingStore) GetMany(ctx context.Context, refs []store.Ref) ([][]byte, error) {
	blocks, err := l.MemoryStore.GetMany(ctx, refs)
	l.once.Do(l.lose)
	return blocks, err
}

// midRunLossStore loses blocks from its MemoryStore the moment the first
// PutMany commit returns: losses that subtracting commits from the
// tracked missing set cannot see.
type midRunLossStore struct {
	*MemoryStore
	once sync.Once
	lose func()
}

func (l *midRunLossStore) PutMany(ctx context.Context, blocks []store.Block) error {
	err := l.MemoryStore.PutMany(ctx, blocks)
	l.once.Do(l.lose)
	return err
}

// TestRepairClosingSweepCatchesMidRunLoss pins the closing sweep: a data
// block and a parity lost after round 1's commit — one never damaged,
// one just repaired by that commit — must be repaired or reported
// unrepaired, never missed silently. Both a run that needs only one round
// (the tracked set empties right away) and a multi-round run are covered.
func TestRepairClosingSweepCatchesMidRunLoss(t *testing.T) {
	params := lattice.Params{Alpha: 3, S: 2, P: 5}
	lat, err := lattice.New(params)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		lossFrac float64
	}{
		{"single-round", 0},
		{"multi-round", 0.3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, originals := buildDamagedStore(t, params, 120, 32, tc.lossFrac, 5)
			st.LoseData(40)
			// Pick a data block and a parity the damage left intact.
			intact := 100
			for slices.Contains(st.MissingData(), intact) {
				intact++
			}
			var lostPar lattice.Edge
			for i := 80; ; i++ {
				if lostPar, err = lat.OutEdge(lattice.Horizontal, i); err != nil {
					t.Fatal(err)
				}
				if _, ok := st.Parity(lostPar); ok {
					break
				}
			}
			ms := &midRunLossStore{MemoryStore: st, lose: func() {
				st.LoseData(intact)
				st.LoseData(40) // repaired by round 1
				st.LoseParity(lostPar)
			}}
			cs := &countingStore{inner: ms}
			rep, err := NewRepairer(params)
			if err != nil {
				t.Fatal(err)
			}
			stats, err := rep.Repair(context.Background(), cs, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(stats.UnrepairedData, st.MissingData()) {
				t.Errorf("UnrepairedData %v, store is missing %v", stats.UnrepairedData, st.MissingData())
			}
			if !slices.Equal(stats.UnrepairedParities, st.MissingParities()) {
				t.Errorf("UnrepairedParities %v, store is missing %v", stats.UnrepairedParities, st.MissingParities())
			}
			for _, i := range []int{40, intact} {
				got, err := st.GetData(context.Background(), i)
				if err != nil {
					t.Errorf("d%d lost mid-run was not repaired: %v", i, err)
				} else if !bytes.Equal(got, originals[i]) {
					t.Errorf("d%d repaired with wrong content", i)
				}
			}
			if _, ok := st.Parity(lostPar); !ok {
				t.Errorf("parity %v lost mid-run was not repaired", lostPar)
			}
			if _, _, _, _, missing := cs.counts(); missing < 3 {
				t.Errorf("%d Missing sweeps, want at least 3 (opening, one that finds the loss, closing)", missing)
			}
		})
	}
}

// TestRepairCarriedSnapshotMatchesFreshRounds pins Table VI semantics
// under the carried snapshot: one run must repair, round by round, exactly
// what a sequence of one-round runs does — each of which sweeps and
// fetches its whole working set from scratch.
func TestRepairCarriedSnapshotMatchesFreshRounds(t *testing.T) {
	for _, params := range []lattice.Params{
		{Alpha: 2, S: 1, P: 1},
		{Alpha: 2, S: 2, P: 5},
		{Alpha: 3, S: 2, P: 5},
		{Alpha: 3, S: 5, P: 5},
	} {
		for _, loss := range []float64{0.1, 0.3, 0.5} {
			rep, err := NewRepairer(params)
			if err != nil {
				t.Fatal(err)
			}
			seed := int64(loss * 100)
			carried, _ := buildDamagedStore(t, params, 120, 16, loss, seed)
			got, err := rep.Repair(context.Background(), carried, Options{})
			if err != nil {
				t.Fatal(err)
			}
			fresh, _ := buildDamagedStore(t, params, 120, 16, loss, seed)
			var want []RoundStats
			for {
				one, err := rep.Repair(context.Background(), fresh, Options{MaxRounds: 1})
				if err != nil {
					t.Fatal(err)
				}
				if one.Rounds == 0 {
					break
				}
				rs := one.PerRound[0]
				rs.Round = len(want) + 1
				want = append(want, rs)
			}
			if !slices.Equal(got.PerRound, want) {
				t.Errorf("%v loss=%.1f: carried run repaired %v, fresh rounds %v", params, loss, got.PerRound, want)
			}
			if !slices.Equal(carried.MissingData(), fresh.MissingData()) ||
				!slices.Equal(carried.MissingParities(), fresh.MissingParities()) {
				t.Errorf("%v loss=%.1f: carried and fresh runs left different blocks missing", params, loss)
			}
		}
	}
}
