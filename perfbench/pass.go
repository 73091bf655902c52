package main

import (
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"aecodes/internal/hotpath"
	"aecodes/internal/obs"
)

// pass is everything one run of a workload measured.
type pass struct {
	setup     []float64 // process CPU seconds of each round's set-up
	setupWall []float64 // wall seconds of each round's set-up
	attempted int64
	failed    int64
	bytes     int64   // user bytes through the timed phases
	secs      float64 // wall seconds of the timed phases
	timed     int64   // timed phases run
	cpu       float64 // process CPU seconds (user + system) in the timed phases
	phases    []phase
	lat       []float64 // per-op latency, seconds
	stored    float64   // bytes the stores hold per user byte
	// det holds, per round, the counts that must not depend on tracing.
	det     []map[string]float64
	windows []window
	tr      *tracer
	backups int64
	blocks  int64 // blocks moved through the timed phases
	repair  repairTotals
	d       deltas // process-wide counters over the timed phases
}

type phase struct {
	name  string
	bytes int64
	secs  float64
}

type repairTotals struct {
	rounds, repaired, bytesRead int64
}

// deltas are process-wide counters summed over timed phases only, so
// set-up and verification do not leak into per-layer figures.
type deltas struct {
	counters       map[string]int64
	histN          map[string]int64 // samples recorded per histogram
	copied         int64
	alloc, pauseNs int64
	gcs            int64
}

// probe is a point-in-time reading of the counters deltas sum.
type probe struct {
	snap obs.Snapshot
	mem  runtime.MemStats
	copy uint64
}

func probeNow() probe {
	var pr probe
	pr.snap = obs.Default.Snapshot()
	runtime.ReadMemStats(&pr.mem)
	pr.copy = hotpath.CopiedBytes()
	return pr
}

// diff returns the deltas between two probes.
func diff(a, b probe) deltas {
	d := deltas{counters: map[string]int64{}, histN: map[string]int64{}}
	for k, v := range b.snap.Counters {
		d.counters[k] = v - a.snap.Counters[k]
	}
	for k, h := range b.snap.Hists {
		d.histN[k] = int64(h.Count - a.snap.Hists[k].Count)
	}
	d.copied = int64(b.copy - a.copy)
	d.alloc = int64(b.mem.TotalAlloc - a.mem.TotalAlloc)
	d.pauseNs = int64(b.mem.PauseTotalNs - a.mem.PauseTotalNs)
	d.gcs = int64(b.mem.NumGC - a.mem.NumGC)
	return d
}

func (d *deltas) add(o deltas) {
	if d.counters == nil {
		*d = deltas{counters: map[string]int64{}, histN: map[string]int64{}}
	}
	for k, v := range o.counters {
		d.counters[k] += v
	}
	for k, v := range o.histN {
		d.histN[k] += v
	}
	d.copied += o.copied
	d.alloc += o.alloc
	d.pauseNs += o.pauseNs
	d.gcs += o.gcs
}

// frames counts the requests every transport server in the process
// served.
func (d deltas) frames() int64 {
	var n int64
	for k, v := range d.counters {
		if strings.HasPrefix(k, "transport/") && strings.HasSuffix(k, ".count") {
			n += v
		}
	}
	return n
}

// phaseRun times one phase of a round. It probes the process counters
// around it and, traced, opens a ledger window per lane. With a nil
// pass (a warm-up round) it records nothing.
type phaseRun struct {
	p      *pass
	t      *tracer
	name   string
	before probe
	start  time.Time
	cpu    float64
	tStart int64
}

func (p *pass) begin(t *tracer, name string) *phaseRun {
	ph := &phaseRun{p: p, t: t, name: name}
	// Every phase starts from a collected heap, so the garbage set-up or
	// the previous phase left is not collected on this phase's clock.
	runtime.GC()
	if p != nil {
		ph.before = probeNow()
	}
	if t != nil {
		ph.tStart = t.now()
	}
	ph.cpu = cpuSeconds()
	ph.start = time.Now()
	return ph
}

// end closes the phase, crediting bytes of user data to it. lanes lists
// the closed loops that ran in it. It returns the phase's deltas.
func (ph *phaseRun) end(bytes int64, lanes ...uint8) deltas {
	secs := time.Since(ph.start).Seconds()
	cpu := cpuSeconds() - ph.cpu
	var tEnd int64
	if ph.t != nil {
		tEnd = ph.t.now()
	}
	if ph.p == nil {
		return deltas{}
	}
	d := diff(ph.before, probeNow())
	p := ph.p
	p.d.add(d)
	p.bytes += bytes
	p.secs += secs
	p.timed++
	p.cpu += cpu
	found := false
	for i := range p.phases {
		if p.phases[i].name == ph.name {
			p.phases[i].bytes += bytes
			p.phases[i].secs += secs
			found = true
		}
	}
	if !found {
		p.phases = append(p.phases, phase{ph.name, bytes, secs})
	}
	if ph.t != nil {
		if len(lanes) == 0 {
			lanes = []uint8{0}
		}
		for _, l := range lanes {
			p.windows = append(p.windows, window{lane: l, start: ph.tStart, end: tEnd})
		}
	}
	return d
}

// cpuSeconds is the CPU time the whole process (clients and in-process
// servers alike) has used. Unlike wall time it does not grow while a
// virtual CPU waits for its host.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// phaseBytes sums the user bytes of the named phases.
func (p *pass) phaseBytes(names ...string) int64 {
	var n int64
	for _, ph := range p.phases {
		if slices.Contains(names, ph.name) {
			n += ph.bytes
		}
	}
	return n
}

func (p *pass) mbs() float64 { return float64(p.bytes) / (1 << 20) / p.secs }

// rounds runs one unmeasured warm-up round, then measured rounds until
// cfg.seconds of wall time have passed (at least one). Every round sets
// up afresh, so state never accumulates across rounds: no store grows
// past one segment, and nothing dirty outlives a round in the page cache.
func rounds(cfg config, p *pass, round func(i int, p *pass) (map[string]float64, error)) error {
	if _, err := round(-1, nil); err != nil {
		return err
	}
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		det, err := round(i, p)
		if err != nil {
			return err
		}
		p.det = append(p.det, det)
	}
	return nil
}

// timeSetup runs one round's set-up and records its CPU and wall time.
func timeSetup[E any](p *pass, setup func() (E, error)) (E, error) {
	cpu := cpuSeconds()
	start := time.Now()
	e, err := setup()
	if err == nil && p != nil {
		p.setupWall = append(p.setupWall, time.Since(start).Seconds())
		p.setup = append(p.setup, cpuSeconds()-cpu)
	}
	return e, err
}
