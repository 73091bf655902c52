package entangle

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"aecodes/internal/hotpath"
	"aecodes/internal/lattice"
	"aecodes/internal/store"
	"aecodes/internal/xorblock"
)

// ErrUnrepairable is returned by the single-block repair functions when no
// complete tuple is available this round. Round-based repair treats it as
// "try again next round".
var ErrUnrepairable = errors.New("entangle: no complete repair tuple available")

// Repairer rebuilds missing blocks using the lattice geometry. Repairers are
// stateless and safe for concurrent use.
//
// The repairer reads through the context-aware Source dialect and treats
// any read error as "block unavailable" — a node that cannot be reached
// holds nothing this round. Context cancellation is checked at every
// tuple search and round boundary and surfaces as ctx.Err().
type Repairer struct {
	lat *lattice.Lattice
}

// NewRepairer returns a repairer for the given code parameters.
func NewRepairer(params lattice.Params) (*Repairer, error) {
	lat, err := lattice.New(params)
	if err != nil {
		return nil, err
	}
	return &Repairer{lat: lat}, nil
}

// Lattice returns the geometry this repairer operates on.
func (r *Repairer) Lattice() *lattice.Lattice { return r.lat }

// available adapts a dialect read to the planner's availability view: any
// error means the block cannot be used this round.
func available(b []byte, err error) ([]byte, bool) {
	if err != nil {
		return nil, false
	}
	return b, true
}

// RepairData rebuilds data block i from the first complete pp-tuple among
// its α strands — "the decoder uses the shortest available path", and the
// one-hop paths are exactly the pp-tuples. The repair cost is always one
// XOR of two blocks, regardless of the code parameters (§III: none of the
// three parameters change the cost of a single failure).
//
// It returns ErrUnrepairable when every tuple is incomplete.
func (r *Repairer) RepairData(ctx context.Context, src Source, i int) ([]byte, error) {
	in, out, err := r.findDataTuple(ctx, src, i)
	if err != nil {
		return nil, err
	}
	return xorblock.Xor(in, out)
}

// findDataTuple locates the first complete pp-tuple for data block i and
// returns its two parity blocks.
func (r *Repairer) findDataTuple(ctx context.Context, src Source, i int) (in, out []byte, err error) {
	tuples, err := r.lat.Tuples(i)
	if err != nil {
		return nil, nil, err
	}
	for _, t := range tuples {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		in, okIn := available(src.GetParity(ctx, t.In))
		if !okIn {
			continue
		}
		out, okOut := available(src.GetParity(ctx, t.Out))
		if !okOut {
			continue
		}
		return in, out, nil
	}
	return nil, nil, ErrUnrepairable
}

// RepairParity rebuilds the parity on edge e from either of its two
// dp-tuples: p_{i,j} = d_i XOR p_{h,i} = d_j XOR p_{j,k} (§III.B: "there are
// always two options").
//
// It returns ErrUnrepairable when both options are incomplete.
func (r *Repairer) RepairParity(ctx context.Context, src Source, e lattice.Edge) ([]byte, error) {
	d, p, err := r.findParityOption(ctx, src, e)
	if err != nil {
		return nil, err
	}
	return xorblock.Xor(d, p)
}

// findParityOption locates the first complete dp-tuple for the parity on e
// and returns the data block and companion parity.
func (r *Repairer) findParityOption(ctx context.Context, src Source, e lattice.Edge) (d, p []byte, err error) {
	opts, err := r.lat.ParityOptions(e)
	if err != nil {
		return nil, nil, err
	}
	for _, opt := range opts {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		d, okD := available(src.GetData(ctx, opt.Data))
		if !okD {
			continue
		}
		p, okP := available(src.GetParity(ctx, opt.Parity))
		if !okP {
			continue
		}
		return d, p, nil
	}
	return nil, nil, ErrUnrepairable
}

// Options configures round-based repair.
type Options struct {
	// MaxRounds caps the number of repair rounds; 0 means run until
	// fixpoint.
	MaxRounds int
	// DataOnly restricts repair to data blocks ("minimal maintenance",
	// §V.C.2): missing parities are left unrepaired.
	DataOnly bool
	// Workers sets the number of goroutines planning repairs within a
	// round ("the decoder can repair multiple single failures in
	// parallel", §III.A). Values below 2 plan inline, on the calling
	// goroutine. The result is identical for any worker count: planning
	// is read-only against the frozen pre-round state and commits stay
	// ordered.
	Workers int
	// Patience is the number of consecutive zero-progress rounds tolerated
	// before declaring a fixpoint. The default 0 stops at the first round
	// that repairs nothing (the paper's Table VI semantics over a stable
	// store). Over a flaky backend a round can repair nothing because
	// reads were dropped rather than because nothing is repairable, so a
	// small Patience lets repair ride out transient unavailability.
	Patience int
	// RetryDelay is the pause between prefetch retry attempts and before
	// re-enumerating after a zero-progress round, giving a blipped
	// backend (a transport pool mid-redial, a restarting node) real time
	// to recover instead of burning every retry and Patience round in
	// microseconds. Zero defaults to 50ms — on the order of the
	// transport's first redial backoff; negative disables the pause.
	RetryDelay time.Duration
	// RateLimit, when non-nil, meters the run's I/O: the engine charges
	// every fetched and committed block against it and stalls when the
	// budget is spent. Background maintenance shares one limiter across
	// all of its tasks so foreground traffic keeps its p99.
	RateLimit Limiter
	// Priority tags the run for schedulers sharing a rate budget; the
	// engine records it but does not act on it.
	Priority Priority
	// Scope selects the repair surface: whole-lattice rounds (the
	// default, ScopeLattice), exactly Targets (ScopeBlock), or Targets
	// plus the missing tuple companions needed to complete them
	// (ScopeTuple). See the Scope constants.
	Scope Scope
	// Targets lists the blocks scoped repair rebuilds; ignored under
	// ScopeLattice.
	Targets []store.Ref
}

// retryDelay resolves the option's default.
func (o Options) retryDelay() time.Duration {
	if o.RetryDelay == 0 {
		return 50 * time.Millisecond
	}
	if o.RetryDelay < 0 {
		return 0
	}
	return o.RetryDelay
}

// RoundStats records what one synchronous repair round achieved.
type RoundStats struct {
	Round          int
	DataRepaired   int
	ParityRepaired int
}

// Stats summarises a full Repair run.
type Stats struct {
	// Rounds is the number of rounds that performed at least one repair.
	Rounds int
	// DataRepaired and ParityRepaired count successfully rebuilt blocks.
	DataRepaired   int
	ParityRepaired int
	// FirstRoundData counts data blocks rebuilt in round 1 — the paper's
	// "single failures solved at the first round" numerator (Fig 13).
	FirstRoundData int
	// PerRound holds one entry per executed round.
	PerRound []RoundStats
	// UnrepairedData and UnrepairedParities list blocks that remained
	// missing at fixpoint (irrecoverable under the current availability).
	UnrepairedData     []int
	UnrepairedParities []lattice.Edge
	// BytesRead counts block bytes the engine actually fetched to plan
	// repairs — the numerator of bytes-moved-per-repaired-block. Scoped
	// repair reads only the tuples it probes (≈2 blocks per repaired
	// block); a whole-lattice run prefetches its working set, each block
	// at most once per run.
	BytesRead int64
}

// DataLoss returns the number of data blocks the engine failed to repair —
// the paper's data-loss metric (Fig 11).
func (s Stats) DataLoss() int { return len(s.UnrepairedData) }

// Repair runs synchronous repair rounds over the store until every missing
// block is rebuilt, a fixpoint without progress is reached, or MaxRounds is
// hit. Within a round every repair reads only blocks that were available
// when the round started, so the round count matches the paper's Table VI
// semantics; newly repaired blocks become usable in the next round.
//
// A whole-lattice run (ScopeLattice) reads each block at most once. One
// Missing sweep opens the run; after each productive round the committed
// blocks are subtracted from the tracked missing set instead of sweeping
// again. A closing sweep runs when the tracked set empties, after a
// zero-progress round and after a failed prefetch, and decides whether
// the lattice is healthy, at a fixpoint, or lost blocks mid-run that the
// next round must take on. A run reports a healthy lattice only after a
// fresh sweep found nothing missing.
//
// Planning reads an engine-owned snapshot carried across the run's
// rounds: each round issues at most one GetMany, for the working-set
// blocks the snapshot lacks, and commits all of its repairs with a single
// PutMany batch whose blocks then join the snapshot. Lattice blocks are
// write-once per key, so a copy fetched in round k is still correct in
// round k+1. Within a round the snapshot is frozen and planning reads
// never touch the backend, so every planner sees the same state whatever
// the worker count.
func (r *Repairer) Repair(ctx context.Context, st Store, opts Options) (Stats, error) {
	var stats Stats
	var err error
	if opts.Scope != ScopeLattice {
		stats, err = r.repairScoped(ctx, st, opts)
	} else {
		stats, err = r.repairLattice(ctx, st, opts)
	}
	recordRepairObs(opts, stats, err)
	return stats, err
}

// repairLattice is the whole-lattice ScopeLattice engine behind Repair.
func (r *Repairer) repairLattice(ctx context.Context, st Store, opts Options) (Stats, error) {
	var stats Stats
	snap := &roundCache{blocks: make(map[store.Ref]cached)}
	defer snap.release()
	// planned is the part of a missing set the run repairs.
	planned := func(m store.Missing) []lattice.Edge {
		if opts.DataOnly {
			return nil
		}
		return m.Parities
	}
	healthy := func(m store.Missing) bool { return len(m.Data) == 0 && len(planned(m)) == 0 }
	missing, err := snap.sweep(ctx, st)
	if err != nil {
		return stats, err
	}
	// fresh is true while missing is a sweep's result with nothing
	// committed since; otherwise it is that sweep minus the commits.
	fresh := true
	zeroRounds := 0
	for round := 1; ; round++ {
		if healthy(missing) && !fresh {
			// Closing sweep: subtraction cannot see a block lost mid-run,
			// so only a fresh sweep may call the lattice healthy.
			if missing, err = snap.sweep(ctx, st); err != nil {
				return stats, err
			}
			fresh = true
		}
		if healthy(missing) {
			break
		}
		if opts.MaxRounds > 0 && round > opts.MaxRounds {
			break
		}
		if err := ctx.Err(); err != nil {
			return stats, err
		}

		// Top the snapshot up with the working-set blocks it lacks, then
		// plan against it. A prefetch whose bounded retries all failed is
		// a backend outage lasting beyond this round: Patience treats it
		// like a zero-progress round (a closing sweep starts the next one
		// over), and only when Patience is exhausted does it surface as
		// the run's error.
		if err := r.prefetchRound(ctx, st, snap, missing, planned(missing), opts, &stats); err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return stats, cerr
			}
			zeroRounds++
			if zeroRounds > opts.Patience {
				return stats, fmt.Errorf("entangle: prefetching round %d: %w", round, err)
			}
			if serr := store.SleepCtx(ctx, opts.retryDelay()); serr != nil {
				return stats, serr
			}
			if missing, err = snap.sweep(ctx, st); err != nil {
				return stats, err
			}
			fresh = true
			continue
		}
		dataFixes, parFixes, err := r.planRound(ctx, snap, missing.Data, planned(missing), opts.Workers)
		if err != nil {
			return stats, err
		}

		if len(dataFixes) == 0 && len(parFixes) == 0 {
			zeroRounds++
			if zeroRounds > opts.Patience && fresh {
				break // fixpoint: nothing a fresh sweep reports is repairable
			}
			if zeroRounds <= opts.Patience {
				// Flaky reads may have starved this round; give the
				// backend time to recover before trying again.
				if serr := store.SleepCtx(ctx, opts.retryDelay()); serr != nil {
					return stats, serr
				}
			}
			tracked := missing
			if missing, err = snap.sweep(ctx, st); err != nil {
				return stats, err
			}
			fresh = true
			// Sweeps list blocks in a fixed order, so equal slices mean
			// nothing was lost or restored mid-run. Otherwise the fresh set
			// gets one more round, which stops at once if it is fruitless.
			if zeroRounds > opts.Patience && slices.Equal(tracked.Data, missing.Data) &&
				slices.Equal(planned(tracked), planned(missing)) {
				break // fixpoint
			}
			continue
		}
		zeroRounds = 0

		// ...then commit the round as one batch, making this round's
		// repairs visible to the next. Store implementations copy (or
		// transmit) on PutMany — see the Store contract — so the
		// planner's pooled buffers stay engine-owned after the commit:
		// they join the snapshot and return to the pool on eviction,
		// keeping whole-lattice repair allocation-free in steady state.
		commit := make([]store.Block, 0, len(dataFixes)+len(parFixes))
		var commitBytes int64
		for _, f := range dataFixes {
			commit = append(commit, store.Block{Ref: store.DataRef(f.pos), Data: f.buf})
			commitBytes += int64(len(f.buf))
		}
		for _, f := range parFixes {
			commit = append(commit, store.Block{Ref: store.ParityRef(f.edge), Data: f.buf})
			commitBytes += int64(len(f.buf))
		}
		if opts.RateLimit != nil {
			if lerr := opts.RateLimit.Acquire(ctx, len(commit), commitBytes); lerr != nil {
				recycle(commit)
				return stats, lerr
			}
		}
		if err := st.PutMany(ctx, commit); err != nil {
			recycle(commit)
			return stats, fmt.Errorf("entangle: committing round %d (%d blocks): %w", round, len(commit), err)
		}
		snap.adopt(commit)
		missing = subtract(missing, commit)
		fresh = false

		// Rounds counts productive rounds only, whatever zero-progress
		// Patience rounds were interleaved: PerRound[i].Round == i+1 always
		// holds, and the Table VI round count stays comparable across
		// stable and flaky backends.
		stats.Rounds++
		rs := RoundStats{Round: stats.Rounds, DataRepaired: len(dataFixes), ParityRepaired: len(parFixes)}
		stats.PerRound = append(stats.PerRound, rs)
		stats.DataRepaired += rs.DataRepaired
		stats.ParityRepaired += rs.ParityRepaired
		if stats.Rounds == 1 {
			stats.FirstRoundData = rs.DataRepaired
		}
	}
	if !fresh {
		// Only the MaxRounds exit lands here: a commit happened after the
		// last sweep, so the accounting needs a fresh one.
		if missing, err = snap.sweep(ctx, st); err != nil {
			return stats, err
		}
	}
	stats.UnrepairedData = missing.Data
	stats.UnrepairedParities = missing.Parities
	return stats, nil
}

// subtract returns m without the committed blocks, keeping m's order.
func subtract(m store.Missing, commit []store.Block) store.Missing {
	done := make(map[store.Ref]bool, len(commit))
	for _, b := range commit {
		done[b.Ref] = true
	}
	var out store.Missing
	for _, i := range m.Data {
		if !done[store.DataRef(i)] {
			out.Data = append(out.Data, i)
		}
	}
	for _, e := range m.Parities {
		if !done[store.ParityRef(e)] {
			out.Parities = append(out.Parities, e)
		}
	}
	return out
}

// recycle returns engine-owned commit buffers to the block pool.
func recycle(blocks []store.Block) {
	for _, b := range blocks {
		xorblock.PoolFor(len(b.Data)).Put(b.Data)
	}
}

// roundCache is the engine-owned snapshot a whole-lattice run plans
// against. It lives for the whole run: each round's prefetch adds the
// working-set blocks it lacks, each commit adds the repaired blocks, and
// entries outside the next round's working set are evicted. It serves the
// planners as a Source — a ref absent from the snapshot (or fetched as
// unavailable) reads as ErrNotFound, so a concurrent fault mid-round
// cannot make two planners disagree about availability. Planners only
// read it, between a prefetch and a commit, so any number of planner
// goroutines may share it.
//
// Lattice blocks are write-once per key, so a copy fetched in an earlier
// round still holds the correct content in a later one. Only the
// engine's own commit buffers are recycled on eviction: fetched blocks
// may alias the shared zero block, a store's own copies or a transport
// frame, and are only ever dropped.
type roundCache struct {
	blockSize int // learned from the first fetched or committed block; 0 if none
	blocks    map[store.Ref]cached
}

// cached is one snapshot entry.
type cached struct {
	b     []byte // nil: fetched, but the store could not serve it
	owned bool   // b is an engine commit buffer from xorblock's pool
}

var _ Source = (*roundCache)(nil)

// GetData implements Source against the snapshot.
func (c *roundCache) GetData(ctx context.Context, i int) ([]byte, error) {
	if b := c.blocks[store.DataRef(i)].b; b != nil {
		return b, nil
	}
	return nil, fmt.Errorf("entangle: d%d not in round snapshot: %w", i, store.ErrNotFound)
}

// GetParity implements Source against the snapshot; virtual edges read as
// zero blocks once any real block has told the cache the block size.
func (c *roundCache) GetParity(ctx context.Context, e lattice.Edge) ([]byte, error) {
	if e.IsVirtual() {
		if c.blockSize == 0 {
			// Nothing real was fetched, so no tuple can complete anyway.
			return nil, fmt.Errorf("entangle: parity %v: %w", e, store.ErrNotFound)
		}
		return store.ZeroBlock(c.blockSize), nil
	}
	if b := c.blocks[store.ParityRef(e)].b; b != nil {
		return b, nil
	}
	return nil, fmt.Errorf("entangle: parity %v not in round snapshot: %w", e, store.ErrNotFound)
}

// put records b under ref.
func (c *roundCache) put(ref store.Ref, b []byte, owned bool) {
	if c.blockSize == 0 && b != nil {
		c.blockSize = len(b)
	}
	c.blocks[ref] = cached{b: b, owned: owned}
}

// adopt makes a committed round's buffers snapshot entries the engine
// owns.
func (c *roundCache) adopt(commit []store.Block) {
	for _, b := range commit {
		c.put(b.Ref, b.Data, true)
	}
}

// evict drops every entry keep rejects.
func (c *roundCache) evict(keep func(store.Ref, cached) bool) {
	for ref, e := range c.blocks {
		if keep(ref, e) {
			continue
		}
		if e.owned {
			xorblock.PoolFor(len(e.b)).Put(e.b)
		}
		delete(c.blocks, ref)
	}
}

// release returns every owned buffer to the pool at the end of a run.
func (c *roundCache) release() {
	c.evict(func(store.Ref, cached) bool { return false })
}

// sweep runs one CRC-verified Missing enumeration. The store has just
// given its current view, so entries it could not serve earlier are
// forgotten: a read dropped by a flaky backend is retried by the next
// prefetch instead of staying unavailable for the rest of the run.
func (c *roundCache) sweep(ctx context.Context, st Store) (store.Missing, error) {
	m, err := st.Missing(ctx)
	if err != nil {
		return store.Missing{}, fmt.Errorf("entangle: enumerating missing blocks: %w", err)
	}
	c.evict(func(_ store.Ref, e cached) bool { return e.b != nil })
	return m, nil
}

// prefetchAttempts bounds the in-round retries of the working-set batch,
// so a short ErrUnavailable burst from a flaky backend costs a retry
// instead of aborting the whole repair run.
const prefetchAttempts = 3

// workingSet enumerates, deduplicated, every block the round's planners
// may read: both parities of every pp-tuple of each missing data block,
// and the data block plus companion parity of every dp-tuple option of
// each missing parity. Virtual edges are excluded (they never need
// fetching). It returns the refs in enumeration order and as a set.
func (r *Repairer) workingSet(missingData []int, missingPar []lattice.Edge) ([]store.Ref, map[store.Ref]bool, error) {
	var refs []store.Ref
	seen := make(map[store.Ref]bool)
	add := func(ref store.Ref) {
		if !seen[ref] {
			seen[ref] = true
			refs = append(refs, ref)
		}
	}
	addPar := func(e lattice.Edge) {
		if !e.IsVirtual() {
			add(store.ParityRef(e))
		}
	}
	for _, i := range missingData {
		tuples, err := r.lat.Tuples(i)
		if err != nil {
			return nil, nil, err
		}
		for _, t := range tuples {
			addPar(t.In)
			addPar(t.Out)
		}
	}
	for _, e := range missingPar {
		opts, err := r.lat.ParityOptions(e)
		if err != nil {
			return nil, nil, err
		}
		for _, opt := range opts {
			add(store.DataRef(opt.Data))
			addPar(opt.Parity)
		}
	}
	return refs, seen, nil
}

// prefetchRound readies the snapshot for one round: it evicts entries
// outside the round's working set, then issues one GetMany for the
// working-set refs the snapshot lacks and the tracked missing set does not
// list — nothing at all when the snapshot already covers the round. A
// failed batch is retried a bounded number of times with delay between
// attempts (flaky backends burst; pools need their redial backoff to
// land); nil entries — blocks the store cannot serve — are recorded as
// unavailable until the next sweep. Fetched bytes are counted into stats
// and charged against the rate limiter after the batch lands (the debt
// model: the engine only learns sizes by reading).
func (r *Repairer) prefetchRound(ctx context.Context, st Store, snap *roundCache, missing store.Missing, missingPar []lattice.Edge, opts Options, stats *Stats) error {
	refs, inSet, err := r.workingSet(missing.Data, missingPar)
	if err != nil {
		return err
	}
	snap.evict(func(ref store.Ref, _ cached) bool { return inSet[ref] })
	known := make(map[store.Ref]bool, len(missing.Data)+len(missing.Parities))
	for _, i := range missing.Data {
		known[store.DataRef(i)] = true
	}
	for _, e := range missing.Parities {
		known[store.ParityRef(e)] = true
	}
	var want []store.Ref
	for _, ref := range refs {
		if _, held := snap.blocks[ref]; !held && !known[ref] {
			want = append(want, ref)
		}
	}
	if len(want) == 0 {
		return nil
	}
	var blocks [][]byte
	for attempt := 1; ; attempt++ {
		blocks, err = st.GetMany(ctx, want)
		if err == nil {
			break
		}
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		if attempt >= prefetchAttempts {
			return fmt.Errorf("entangle: working-set prefetch failed after %d attempts: %w", attempt, err)
		}
		if serr := store.SleepCtx(ctx, opts.retryDelay()); serr != nil {
			return serr
		}
	}
	if len(blocks) != len(want) {
		return fmt.Errorf("entangle: working-set prefetch returned %d entries, want %d", len(blocks), len(want))
	}
	var fetched int64
	served := 0
	for idx, ref := range want {
		b := blocks[idx]
		if b != nil {
			fetched += int64(len(b))
			served++
		}
		snap.put(ref, b, false)
	}
	stats.BytesRead += fetched
	hotpath.CountRepairRead(int(fetched))
	if opts.RateLimit != nil {
		if err := opts.RateLimit.Acquire(ctx, served, fetched); err != nil {
			return err
		}
	}
	return nil
}

// dataFix and parFix are planned repairs awaiting commit.
type dataFix struct {
	pos int
	buf []byte
}

type parFix struct {
	edge lattice.Edge
	buf  []byte
}

// planRound computes every repair possible against the round snapshot
// without committing anything. With workers ≥ 2 the planning fans
// out over goroutines; worker 0 always runs on the calling goroutine,
// so below that no goroutine starts. Results keep the input order
// either way, so the round outcome is identical.
func (r *Repairer) planRound(ctx context.Context, src Source, missingData []int, missingPar []lattice.Edge, workers int) ([]dataFix, []parFix, error) {
	workers = max(workers, 1)
	dataBufs := make([][]byte, len(missingData))
	parBufs := make([][]byte, len(missingPar))
	errs := make([]error, workers)
	plan := func(w int) {
		for idx := w; idx < len(missingData); idx += workers {
			buf, err := r.repairDataPooled(ctx, src, missingData[idx])
			if errors.Is(err, ErrUnrepairable) {
				continue
			}
			if err != nil {
				errs[w] = fmt.Errorf("entangle: repairing d%d: %w", missingData[idx], err)
				return
			}
			dataBufs[idx] = buf
		}
		for idx := w; idx < len(missingPar); idx += workers {
			buf, err := r.repairParityPooled(ctx, src, missingPar[idx])
			if errors.Is(err, ErrUnrepairable) {
				continue
			}
			if err != nil {
				errs[w] = fmt.Errorf("entangle: repairing %v: %w", missingPar[idx], err)
				return
			}
			parBufs[idx] = buf
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			plan(w)
		}(w)
	}
	plan(0)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	var dataFixes []dataFix
	for idx, buf := range dataBufs {
		if buf != nil {
			dataFixes = append(dataFixes, dataFix{pos: missingData[idx], buf: buf})
		}
	}
	var parFixes []parFix
	for idx, buf := range parBufs {
		if buf != nil {
			parFixes = append(parFixes, parFix{edge: missingPar[idx], buf: buf})
		}
	}
	return dataFixes, parFixes, nil
}

// repairDataPooled is RepairData drawing its output from the process-wide
// block pool; the Repair commit loop returns the buffer after PutMany.
func (r *Repairer) repairDataPooled(ctx context.Context, src Source, i int) ([]byte, error) {
	in, out, err := r.findDataTuple(ctx, src, i)
	if err != nil {
		return nil, err
	}
	buf := xorblock.PoolFor(len(in)).Get()
	if err := xorblock.XorInto(buf, in, out); err != nil {
		xorblock.PoolFor(len(buf)).Put(buf)
		return nil, err
	}
	return buf, nil
}

// repairParityPooled is RepairParity drawing its output from the
// process-wide block pool.
func (r *Repairer) repairParityPooled(ctx context.Context, src Source, e lattice.Edge) ([]byte, error) {
	d, p, err := r.findParityOption(ctx, src, e)
	if err != nil {
		return nil, err
	}
	buf := xorblock.PoolFor(len(d)).Get()
	if err := xorblock.XorInto(buf, d, p); err != nil {
		xorblock.PoolFor(len(buf)).Put(buf)
		return nil, err
	}
	return buf, nil
}

// AuditResult reports the consistency of one data block against its α
// strands, the observable side of the anti-tampering property (§III): a
// modified block disagrees with every strand the attacker did not rewrite.
type AuditResult struct {
	Index int
	// Consistent[c] is true when d XOR p_{h,i} == p_{i,j} holds on strand
	// class c. Checked[c] is false when either parity was unavailable.
	Consistent map[lattice.Class]bool
	Checked    map[lattice.Class]bool
}

// Clean reports whether every checked strand agreed with the block.
func (a AuditResult) Clean() bool {
	for class, checked := range a.Checked {
		if checked && !a.Consistent[class] {
			return false
		}
	}
	return true
}

// CheckedStrands returns how many strands could be verified.
func (a AuditResult) CheckedStrands() int {
	n := 0
	for _, ok := range a.Checked {
		if ok {
			n++
		}
	}
	return n
}

// Audit verifies data block i against each of its α strands. A block that
// fails the audit on some strand has been modified after entanglement (or
// the strand has): to tamper undetectably an attacker must recompute "all
// the parities computed from its position to the closest strand extremity"
// on every one of the α strands (§III).
func (r *Repairer) Audit(ctx context.Context, src Source, i int) (AuditResult, error) {
	res := AuditResult{
		Index:      i,
		Consistent: make(map[lattice.Class]bool, r.lat.Params().Alpha),
		Checked:    make(map[lattice.Class]bool, r.lat.Params().Alpha),
	}
	d, ok := available(src.GetData(ctx, i))
	if !ok {
		return res, fmt.Errorf("entangle: data block %d unavailable for audit", i)
	}
	tuples, err := r.lat.Tuples(i)
	if err != nil {
		return res, err
	}
	for _, t := range tuples {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		in, okIn := available(src.GetParity(ctx, t.In))
		out, okOut := available(src.GetParity(ctx, t.Out))
		if !okIn || !okOut {
			res.Checked[t.In.Class] = false
			continue
		}
		want, err := xorblock.Xor(d, in)
		if err != nil {
			return res, err
		}
		res.Checked[t.In.Class] = true
		res.Consistent[t.In.Class] = xorblock.Equal(want, out)
	}
	return res, nil
}
