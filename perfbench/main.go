// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload against the real public APIs — archive writer and
// reader, cooperative broker, transport server, tenant registry, segment
// store — and prints the end-to-end metrics (untraced run) or the
// per-layer metrics (traced run), checking every output for correctness.
//
//	perfbench --workload archive-local --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// The lines before it name every metric with its unit and sample count.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"

	"aecodes/internal/xorblock"
)

// heldOutSeed is the seed no tuning run uses. A performance claim must
// also hold on it.
const heldOutSeed = 9001

// config is what the command line fixes for one run.
type config struct {
	seed    int64
	seconds float64
	work    string // scratch directory inside the checkout
}

// workload is one named benchmark scenario. Every workload runs its
// segment stores with Sync off, aestored's default.
type workload struct {
	name    string
	payload int64 // user bytes one round writes
	run     func(ctx context.Context, cfg config, t *tracer) (*pass, error)
}

var workloads = []workload{
	{"archive-local", archivePayload, runArchive},
	{"backup-net", int64(len(backupTenants)) * (backupWarm + backupOps) * blockSize, runBackup},
	{"restore-net", restoreBlocks * blockSize, runRestore},
}

func main() {
	name := flag.String("workload", "", "workload to run: archive-local, backup-net or restore-net")
	seed := flag.Int64("seed", 1, "seed for payloads and damage")
	seconds := flag.Float64("seconds", 20, "seconds of measured work")
	trace := flag.Int("trace", 0, "1: run untraced, then traced, and report per-layer metrics")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced bool) error {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	work, err := os.MkdirTemp(".bench_build", "perfbench-work-")
	if err != nil {
		return fmt.Errorf("scratch directory: %w", err)
	}
	defer os.RemoveAll(work)
	cfg := config{seed: seed, seconds: seconds, work: work}
	info := map[string]any{
		"workload": w.name, "seed": seed, "held_out_seed": heldOutSeed, "seconds": seconds,
		"gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(), "go": runtime.Version(),
		"xor_kernel": xorblock.Active().Name(), "sync": false, "payload_bytes": w.payload, "trace": traced,
	}
	line, _ := json.Marshal(info)
	fmt.Printf("run %s\n", line)

	ctx := context.Background()
	plain, err := w.run(ctx, cfg, nil)
	if err != nil {
		return err
	}
	var res result
	if !traced {
		res = endToEnd(plain)
	} else {
		tp, err := w.run(ctx, cfg, newTracer())
		if err != nil {
			return err
		}
		res = perLayer(plain, tp)
	}
	res.print()
	return nil
}
