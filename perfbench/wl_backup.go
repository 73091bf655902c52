package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"aecodes/internal/blockstore"
	"aecodes/internal/entangle"
	"aecodes/internal/segstore"
	"aecodes/internal/tenant"
	"aecodes/internal/xorblock"
)

// backup-net: two users, tenants acme and zeta, each with one broker
// over its own one-connection pool, back up to one node in closed loops
// with one Backup outstanding per user. The node runs aestored's
// multi-tenant stack, transport.Server → tenant.Registry →
// segstore.Store, with Sync off (aestored's default). There are no
// reads and no repair.
//
// Each round starts a fresh node and has each user back up backupWarm
// unmeasured blocks, then backupOps measured ones: about 51 MiB stored
// per round, under one 64 MiB segment, so no segment is sealed and the
// store is deleted before the page cache writes it back.
var backupTenants = []string{"acme", "zeta"}

const (
	backupWarm = 8
	backupOps  = 128
)

type backupEnv struct {
	dir     string
	node    *node
	clients []*client
	blocks  [][][]byte // per user, the round's seeded blocks
}

func (e *backupEnv) close() error {
	for _, c := range e.clients {
		c.close()
	}
	if e.node == nil {
		return nil
	}
	return e.node.close()
}

func runBackup(ctx context.Context, cfg config, t *tracer) (*pass, error) {
	p := &pass{tr: t}
	err := rounds(cfg, p, func(i int, p *pass) (map[string]float64, error) {
		return backupRound(ctx, cfg, p, t, i)
	})
	return p, err
}

func backupRound(ctx context.Context, cfg config, p *pass, t *tracer, round int) (map[string]float64, error) {
	dir := filepath.Join(cfg.work, fmt.Sprintf("backup-%d", round))
	defer os.RemoveAll(dir)
	before := probeNow()
	e, err := timeSetup(p, func() (*backupEnv, error) {
		e := &backupEnv{dir: dir}
		for u := range backupTenants {
			blocks := make([][]byte, backupWarm+backupOps)
			for k := range blocks {
				blocks[k] = make([]byte, blockSize)
				fill(blocks[k], cfg.seed, streamPayload, uint64(round+1)<<40|uint64(u)<<32|uint64(k))
			}
			e.blocks = append(e.blocks, blocks)
		}
		n, err := startNode(dir, backupTenants, t)
		if err != nil {
			return nil, err
		}
		e.node = n
		for u, id := range backupTenants {
			c, err := dialBroker(ctx, id, id, uint8(u), []*node{n}, t)
			if err != nil {
				e.close()
				return nil, err
			}
			e.clients = append(e.clients, c)
		}
		return e, nil
	})
	if err != nil {
		return nil, err
	}
	// The broker keeps every backed-up block as the user's local copy;
	// nothing here reads it, so each is dropped after its Backup.
	for u, c := range e.clients {
		for k := 0; k < backupWarm; k++ {
			pos, err := c.broker.Backup(ctx, e.blocks[u][k])
			if err != nil {
				e.close()
				return nil, fmt.Errorf("warm-up backup: %w", err)
			}
			c.broker.DropLocal(pos)
		}
	}

	type loop struct {
		errs int64
		lats []float64
	}
	loops := make([]loop, len(e.clients))
	ph := p.begin(t, "backup")
	var wg sync.WaitGroup
	for u := range e.clients {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			b, l := e.clients[u].broker, &loops[u]
			for k := backupWarm; k < backupWarm+backupOps; k++ {
				s := t.begin(kBackup, uint8(u))
				op := time.Now()
				pos, err := b.Backup(ctx, e.blocks[u][k])
				l.lats = append(l.lats, time.Since(op).Seconds())
				t.end(s, 1, 0, blockSize)
				if err != nil {
					l.errs++
					fmt.Fprintf(os.Stderr, "perfbench: backup %s: %v\n", backupTenants[u], err)
					continue
				}
				b.DropLocal(pos)
			}
		}(u)
	}
	wg.Wait()
	var errs int64
	for _, l := range loops {
		errs += l.errs
	}
	acked := int64(len(e.clients)*backupOps) - errs
	d := ph.end(acked*blockSize, 0, 1)
	live := e.node.seg.Stats().LiveBytes
	det := map[string]float64{
		"copied":         float64(d.copied),
		"fsyncs":         float64(d.histN["segstore/sync.latency"]),
		"appended_bytes": float64(d.counters["segstore/append.bytes"]),
		"live_bytes":     float64(live),
	}
	if err := e.close(); err != nil {
		return nil, err
	}
	// Servers count a frame after answering it, so frames are counted
	// over the whole round, once every server has stopped.
	det["round_frames"] = float64(diff(before, probeNow()).frames())
	bad, err := verifyBackups(dir, e.blocks)
	if err != nil {
		return nil, err
	}
	if p == nil {
		if errs+bad > 0 {
			return nil, fmt.Errorf("warm-up round: %d backups failed, %d lost a parity", errs, bad)
		}
		return det, nil
	}
	for _, l := range loops {
		p.lat = append(p.lat, l.lats...)
	}
	p.attempted += int64(len(e.clients) * backupOps)
	p.failed += errs + bad
	p.backups += acked
	p.blocks += acked * int64(params.Alpha)
	p.stored = float64(live) / float64(int64(len(e.clients))*(backupWarm+backupOps)*blockSize)
	return det, nil
}

// verifyBackups reopens the node's segment store from its directory and
// checks every parity of every backup against the parity a fresh
// encoder computes from the same seeded blocks. It returns the number
// of backups with a parity missing or different.
func verifyBackups(dir string, blocks [][][]byte) (int64, error) {
	seg, err := segstore.Open(dir, segstore.Options{})
	if err != nil {
		return 0, fmt.Errorf("reopening the store to verify: %w", err)
	}
	defer seg.Close()
	reg, err := tenant.NewRegistry(seg, tenant.Config{})
	if err != nil {
		return 0, err
	}
	var bad int64
	for u, id := range backupTenants {
		view, err := reg.Open(id)
		if err != nil {
			return 0, err
		}
		enc, err := entangle.NewEncoder(params, blockSize)
		if err != nil {
			return 0, err
		}
		for _, b := range blocks[u] {
			ent, err := enc.Entangle(b)
			if err != nil {
				return 0, err
			}
			for _, par := range ent.Parities {
				got, held := view.Get(id + "/" + blockstore.ParityKey(par.Edge))
				if !held || !xorblock.Equal(got, par.Data) {
					bad++
					break
				}
			}
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d backups lost or changed a parity\n", bad)
	}
	return bad, nil
}
