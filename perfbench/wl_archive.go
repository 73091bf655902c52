package main

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"aecodes"
	"aecodes/internal/segstore"
	"aecodes/internal/store"
)

// archive-local: each round streams a fresh seeded payload through
// aecodes' ArchiveWriter (framing, CRC, the concurrent encode pipeline)
// into a segstore.Lattice on a new segment store with Sync off, closes
// and reopens the store, deletes a seeded 15% of the data blocks, and
// streams the payload back through degraded reads, one block per Read.
// No transport, tenant or per-write fsync is involved.
//
// A round writes about 48 MiB of blocks, under one 64 MiB segment, so no
// segment is sealed (sealing fsyncs) and the files are deleted before
// the page cache writes them back: the round measures the code, not the
// host's disk.
const archivePayload = 12 << 20

// archiveCapacity is the payload one archive block carries (v2 framing
// spends 8 bytes per block), so one Read of this size is one block.
const archiveCapacity = blockSize - 8

const archiveBlocks = (archivePayload + archiveCapacity - 1) / archiveCapacity

func runArchive(ctx context.Context, cfg config, t *tracer) (*pass, error) {
	p := &pass{tr: t}
	payload := make([]byte, archivePayload)
	out := make([]byte, archivePayload+archiveCapacity)
	err := rounds(cfg, p, func(i int, p *pass) (map[string]float64, error) {
		return archiveRound(ctx, cfg, p, t, payload, out, i)
	})
	return p, err
}

// archiveRound writes the round's archive into a fresh store, damages it
// and reads it back. With p nil the round is a warm-up.
func archiveRound(ctx context.Context, cfg config, p *pass, t *tracer, payload, out []byte, round int) (map[string]float64, error) {
	dir := filepath.Join(cfg.work, fmt.Sprintf("archive-%d", round))
	defer os.RemoveAll(dir)
	type env struct {
		seg  *segstore.Store
		bs   aecodes.BlockStore
		code *aecodes.Code
		sum  [32]byte
	}
	e, err := timeSetup(p, func() (*env, error) {
		fill(payload, cfg.seed, streamPayload, uint64(round+1))
		seg, bs, err := openArchiveStore(dir, t, true)
		if err != nil {
			return nil, err
		}
		code, err := aecodes.New(params, blockSize)
		if err != nil {
			seg.Close()
			return nil, err
		}
		return &env{seg: seg, bs: bs, code: code, sum: sha256.Sum256(payload)}, nil
	})
	if err != nil {
		return nil, err
	}

	ph := p.begin(t, "write")
	w, err := aecodes.NewArchiveWriterContext(ctx, e.code, e.bs, aecodes.ArchiveOptions{})
	if err != nil {
		e.seg.Close()
		return nil, err
	}
	for off := 0; off < len(payload) && err == nil; off += archiveCapacity {
		chunk := payload[off:min(off+archiveCapacity, len(payload))]
		s := t.begin(kWrite, 0)
		_, err = w.Write(chunk)
		t.end(s, 1, 0, int64(len(chunk)))
	}
	s := t.begin(kClose, 0)
	err = errors.Join(err, w.Close())
	t.end(s, 0, 0, 0)
	dw := ph.end(int64(len(payload)))
	if err != nil {
		e.seg.Close()
		return nil, fmt.Errorf("archive write: %w", err)
	}
	if w.Blocks() != archiveBlocks {
		e.seg.Close()
		return nil, fmt.Errorf("archive wrote %d blocks, want %d", w.Blocks(), archiveBlocks)
	}
	live := e.seg.Stats().LiveBytes
	det := map[string]float64{
		"blocks":       float64(w.Blocks()),
		"parities":     float64(w.Parities()),
		"live_bytes":   float64(live),
		"write_copied": float64(dw.copied),
		"write_fsyncs": float64(dw.histN["segstore/sync.latency"]),
	}
	if err := e.seg.Close(); err != nil {
		return nil, err
	}

	// Reopen from disk and destroy a seeded share of the data blocks.
	seg, bs, err := openArchiveStore(dir, t, false)
	if err != nil {
		return nil, err
	}
	defer seg.Close()
	for _, i := range pick(archiveBlocks, damaged(archiveBlocks), cfg.seed, streamDamage, uint64(round+1)) {
		seg.Del(store.DataRef(i + 1).String())
	}

	lats := make([]float64, 0, archiveBlocks)
	var readErr error
	n := 0
	ph = p.begin(t, "read")
	r := aecodes.OpenArchiveContext(ctx, e.code, bs, aecodes.ArchiveOptions{})
	for {
		s := t.begin(kRead, 0)
		op := time.Now()
		got, err := r.Read(out[n : n+archiveCapacity])
		lat := time.Since(op).Seconds()
		t.end(s, 1, 0, int64(got))
		n += got
		if errors.Is(err, io.EOF) {
			break // the EOF probe reads no block and is not an op
		}
		lats = append(lats, lat)
		if err != nil {
			readErr = err
			break
		}
		if n > len(payload) {
			readErr = errors.New("archive read past the payload's length")
			break
		}
	}
	dr := ph.end(int64(n))
	det["read_copied"] = float64(dr.copied)
	det["read_ops"] = float64(len(lats))
	bad := readErr != nil || sha256.Sum256(out[:n]) != e.sum
	if p == nil {
		if bad {
			return nil, fmt.Errorf("warm-up round read back a different payload (%v)", readErr)
		}
		return det, nil
	}
	p.attempted += int64(len(lats)) + 1
	p.blocks += archiveBlocks*int64(params.Alpha+1) + int64(len(lats))
	p.lat = append(p.lat, lats...)
	p.stored = float64(live) / float64(len(payload))
	if bad {
		p.failed++
		fmt.Fprintf(os.Stderr, "perfbench: archive round %d read back another SHA-256 (%v)\n", round, readErr)
	}
	return det, nil
}

// openArchiveStore opens the segment store in dir and the lattice view
// over it, creating the view when fresh. Traced, the segment store and
// the view are wrapped.
func openArchiveStore(dir string, t *tracer, fresh bool) (*segstore.Store, aecodes.BlockStore, error) {
	seg, err := segstore.Open(dir, segstore.Options{})
	if err != nil {
		return nil, nil, err
	}
	var backend segstore.Backend = seg
	if t != nil {
		w, err := wrapSeg(t, seg, nil)
		if err != nil {
			seg.Close()
			return nil, nil, err
		}
		backend = w
	}
	var lat *segstore.Lattice
	if fresh {
		lat, err = segstore.NewLattice(backend, segstore.Shape{Params: params, Blocks: archiveBlocks, BlockSize: blockSize})
	} else {
		lat, err = segstore.OpenLattice(backend)
	}
	if err != nil {
		seg.Close()
		return nil, nil, err
	}
	if t != nil {
		return seg, &tracedArchive{t: t, s: lat, blocks: archiveBlocks}, nil
	}
	return seg, lat, nil
}
