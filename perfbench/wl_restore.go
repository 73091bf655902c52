package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"aecodes/internal/blockstore"
	"aecodes/internal/entangle"
)

// restore-net: each round backs up one user's fresh seeded payload to
// two new nodes (Sync off, one connection each), drops the broker's
// local copy and deletes a seeded 15% of the stored parities. Two
// phases are timed: one whole-lattice Broker.Repair, then — local copy
// dropped again — two passes of Broker.Read over every block, each a
// single-XOR degraded read over Gets. Every block is checked byte for
// byte.
//
// Damage falls on closed parities only: a strand's last parity still
// points at a block not yet written, the broker holds it in memory as
// the strand head, and Repair does not read strand heads — losing one
// next to a lost neighbour makes the last data blocks unrecoverable from
// the nodes alone, which no amount of repair can fix.
//
// A node holds about 28 MiB per round, under one 64 MiB segment.
const restoreBlocks = 256

const restoreTenant = "acme"

// restorePasses is how many times the read phase reads every block,
// dropping the broker's local copy before each pass.
const restorePasses = 2

func runRestore(ctx context.Context, cfg config, t *tracer) (*pass, error) {
	p := &pass{tr: t}
	err := rounds(cfg, p, func(i int, p *pass) (map[string]float64, error) {
		return restoreRound(ctx, cfg, p, t, i)
	})
	return p, err
}

type restoreEnv struct {
	nodes   []*node
	client  *client
	payload [][]byte
}

func (e *restoreEnv) close() error {
	if e.client != nil {
		e.client.close()
	}
	var err error
	for _, n := range e.nodes {
		err = errors.Join(err, n.close())
	}
	return err
}

// restoreSetup starts the nodes, backs the payload up and damages it.
func restoreSetup(ctx context.Context, cfg config, t *tracer, dir string, round int) (*restoreEnv, error) {
	e := &restoreEnv{}
	for i := 0; i < 2; i++ {
		n, err := startNode(filepath.Join(dir, fmt.Sprint("node", i)), []string{restoreTenant}, t)
		if err != nil {
			e.close()
			return nil, err
		}
		e.nodes = append(e.nodes, n)
	}
	c, err := dialBroker(ctx, restoreTenant, restoreTenant, 0, e.nodes, t)
	if err != nil {
		e.close()
		return nil, err
	}
	e.client = c
	enc, err := entangle.NewEncoder(params, blockSize)
	if err != nil {
		e.close()
		return nil, err
	}
	var keys []string
	for i := 0; i < restoreBlocks; i++ {
		b := make([]byte, blockSize)
		fill(b, cfg.seed, streamPayload, uint64(round+1)<<32|uint64(i))
		e.payload = append(e.payload, b)
		if _, err := c.broker.Backup(ctx, b); err != nil {
			e.close()
			return nil, fmt.Errorf("backing up the payload: %w", err)
		}
		ent, err := enc.Entangle(b)
		if err != nil {
			e.close()
			return nil, err
		}
		for _, par := range ent.Parities {
			if par.Edge.Right <= restoreBlocks {
				keys = append(keys, restoreTenant+"/"+blockstore.ParityKey(par.Edge))
			}
		}
	}
	c.broker.DropLocal()
	for _, k := range pick(len(keys), damaged(len(keys)), cfg.seed, streamDamage, uint64(round+1)) {
		for _, n := range e.nodes {
			v, err := n.reg.Open(restoreTenant)
			if err != nil {
				e.close()
				return nil, err
			}
			v.Del(keys[k])
		}
	}
	return e, nil
}

// restoreRound sets up, repairs the lattice and reads every block back.
// With p nil the round is a warm-up.
func restoreRound(ctx context.Context, cfg config, p *pass, t *tracer, round int) (map[string]float64, error) {
	dir := filepath.Join(cfg.work, fmt.Sprintf("restore-%d", round))
	defer os.RemoveAll(dir)
	before := probeNow()
	e, err := timeSetup(p, func() (*restoreEnv, error) { return restoreSetup(ctx, cfg, t, dir, round) })
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			e.close()
		}
	}()
	b := e.client.broker

	ph := p.begin(t, "restore")
	s := t.begin(kRepair, 0)
	st, err := b.Repair(ctx, entangle.Options{})
	t.end(s, 1, 0, 0)
	dRepair := ph.end(int64(st.DataRepaired) * blockSize)
	if err != nil {
		return nil, fmt.Errorf("repair: %w", err)
	}
	lost := len(st.UnrepairedData) + len(st.UnrepairedParities)

	lats := make([]float64, 0, restorePasses*restoreBlocks)
	bad := 0
	ph = p.begin(t, "read")
	for pass := 0; pass < restorePasses; pass++ {
		b.DropLocal()
		for i := 1; i <= restoreBlocks; i++ {
			s := t.begin(kBrokerRead, 0)
			op := time.Now()
			got, err := b.Read(ctx, i)
			lats = append(lats, time.Since(op).Seconds())
			t.end(s, 1, 0, int64(len(got)))
			if err != nil || !bytes.Equal(got, e.payload[i-1]) {
				bad++
				if err != nil {
					fmt.Fprintf(os.Stderr, "perfbench: read d%d: %v\n", i, err)
				}
			}
		}
	}
	dRead := ph.end(restorePasses * restoreBlocks * blockSize)
	var live int64
	for _, n := range e.nodes {
		live += n.seg.Stats().LiveBytes
	}
	det := map[string]float64{
		"repair_rounds":   float64(st.Rounds),
		"data_repaired":   float64(st.DataRepaired),
		"parity_repaired": float64(st.ParityRepaired),
		"bytes_read":      float64(st.BytesRead),
		"repair_copied":   float64(dRepair.copied),
		"read_copied":     float64(dRead.copied),
		"live_bytes":      float64(live),
	}
	closed = true
	if err := e.close(); err != nil {
		return nil, err
	}
	// Servers count a frame after answering it, so frames are counted
	// over the whole round, once every server has stopped.
	det["round_frames"] = float64(diff(before, probeNow()).frames())
	if p == nil {
		if lost > 0 || bad > 0 {
			return nil, fmt.Errorf("warm-up round: repair left %d blocks missing, %d reads failed", lost, bad)
		}
		return det, nil
	}
	if lost > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: repair left %d blocks missing\n", lost)
	}
	p.attempted += 1 + restorePasses*restoreBlocks
	p.failed += int64(min(lost, 1) + bad)
	p.blocks += int64(st.DataRepaired+st.ParityRepaired) + restorePasses*restoreBlocks
	p.repair.rounds += int64(st.Rounds)
	p.repair.repaired += int64(st.DataRepaired + st.ParityRepaired)
	p.repair.bytesRead += st.BytesRead
	p.lat = append(p.lat, lats...)
	p.stored = float64(live) / float64(restoreBlocks*blockSize)
	return det, nil
}
