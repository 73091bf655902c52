package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"syscall"
)

// metric is one reported number.
type metric struct {
	name    string
	value   float64
	unit    string
	samples int64
}

type result struct {
	correct           bool
	attempted, failed int64
	metrics           []metric
	notes             []string
}

func (r *result) add(name string, value float64, unit string, samples int64) {
	r.metrics = append(r.metrics, metric{name, value, unit, samples})
}

func (r *result) print() {
	for _, n := range r.notes {
		fmt.Println(n)
	}
	for _, m := range r.metrics {
		fmt.Printf("metric %-40s %14.6g %-8s samples=%d\n", m.name, m.value, m.unit, m.samples)
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]val{}
	for _, m := range r.metrics {
		ms[m.name] = val{m.value, m.unit}
	}
	out, _ := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.correct, r.attempted, r.failed, ms})
	fmt.Println(string(out))
}

// endToEnd turns an untraced pass into the user-visible metrics.
func endToEnd(p *pass) result {
	r := result{correct: p.failed == 0, attempted: p.attempted, failed: p.failed}
	for _, ph := range p.phases {
		r.notes = append(r.notes, fmt.Sprintf("phase %-8s %10.2f MiB/s over %.3f s (%d bytes)",
			ph.name, float64(ph.bytes)/(1<<20)/ph.secs, ph.secs, ph.bytes))
	}
	r.notes = append(r.notes, fmt.Sprintf("fail_ratio %g (%d of %d ops)", float64(p.failed)/float64(p.attempted), p.failed, p.attempted))
	// Wall-clock figures are printed but carry no bound: on a shared VM
	// they follow the host's CPU steal, which moved them 20-50% within an
	// hour while CPU time held. The bounded metrics are CPU time, bytes
	// and memory.
	r.notes = append(r.notes, fmt.Sprintf("wall mb_s %.2f MiB/s over %d timed phases; wall set-up median %.4f s over %d rounds",
		p.mbs(), p.timed, median(p.setupWall), len(p.setupWall)))
	r.add("setup_s", median(p.setup), "s", int64(len(p.setup)))
	r.add("cpu_ms_per_mib", p.cpu*1e3/(float64(p.bytes)/(1<<20)), "ms/MiB", p.timed)
	sorted := append([]float64(nil), p.lat...)
	sort.Float64s(sorted)
	// A percentile is printed only with at least ten samples beyond it.
	dist := fmt.Sprintf("wall op latency over %d ops:", len(sorted))
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		if float64(len(sorted))*(1-q) >= 10 {
			dist += fmt.Sprintf(" p%g=%.4f ms", q*100, quantile(sorted, q)*1e3)
		}
	}
	r.notes = append(r.notes, dist)
	r.add("stored_bytes_per_user_byte", p.stored, "B/B", 1)
	r.add("max_rss_mb", maxRSS(), "MiB", 1)
	return r
}

// maxRSS is the process's peak resident set in MiB.
func maxRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// quantile interpolates linearly between the closest ranks of sorted
// samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// compareDet checks that the deterministic counts of a traced pass
// equal those of the untraced pass, round by round.
func compareDet(plain, traced *pass) []string {
	n := min(len(plain.det), len(traced.det))
	if n == 0 {
		return []string{"no rounds to compare"}
	}
	var diffs []string
	for i := 0; i < n; i++ {
		keys := make([]string, 0, len(plain.det[i]))
		for k := range plain.det[i] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			a, b := plain.det[i][k], traced.det[i][k]
			if a != b {
				diffs = append(diffs, fmt.Sprintf("round %d %s: untraced %v, traced %v", i, k, a, b))
			}
		}
	}
	return diffs
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer turns a traced pass into the per-layer metrics, checks its
// deterministic counts against the untraced pass, and prints the
// ledger.
func perLayer(plain, tp *pass) result {
	r := result{attempted: plain.attempted + tp.attempted, failed: plain.failed + tp.failed}
	diffs := compareDet(plain, tp)
	for _, d := range diffs {
		r.notes = append(r.notes, "det MISMATCH "+d)
	}
	if len(diffs) == 0 {
		r.notes = append(r.notes, fmt.Sprintf("det ok: %d round(s) of deterministic counts equal traced and untraced", min(len(plain.det), len(tp.det))))
	}
	r.correct = r.failed == 0 && len(diffs) == 0
	l := tp.tr.build(tp.windows)
	self := l.selfSum()
	gap := 1 - ratio(self, l.wall)
	verdict := "within 10%"
	if gap > 0.10 || gap < -0.10 {
		verdict = "OUTSIDE 10%: un-instrumented time is a finding"
	}
	r.notes = append(r.notes, fmt.Sprintf("ledger wall %.3f s, Σ self %.3f s, gap %.2f%% (%s)", l.wall, self, gap*100, verdict))
	for k, kd := range kinds {
		if l.calls[k] > 0 {
			r.notes = append(r.notes, fmt.Sprintf("ledger %-12s %-16s calls=%-8d busy=%9.4f s self=%9.4f s", kd.module, kd.op, l.calls[k], l.busy[k], l.self[k]))
		}
	}
	backups := float64(tp.backups)
	fsyncs := tp.d.histN["segstore/sync.latency"]
	hit := float64(tp.d.counters["transport/framepool.hit"])
	poolTotal := hit + float64(tp.d.counters["transport/framepool.miss"]+tp.d.counters["transport/framepool.unpooled"])
	segCalls := l.units[kSegGet]
	written := tp.phaseBytes("write", "backup", "restore")

	r.add("aecodes.write_calls", float64(l.calls[kWrite]), "count", l.calls[kWrite])
	r.add("aecodes.write_wait_s", l.busy[kWrite]+l.busy[kClose], "s", l.calls[kWrite]+l.calls[kClose])
	r.add("aecodes.read_self_s", l.self[kRead], "s", l.calls[kRead])
	r.add("pipeline.self_s", l.self[kWrite]+l.self[kClose], "s", l.calls[kWrite]+l.calls[kClose])
	r.add("pipeline.sink_concurrency", l.sinkConc, "ratio", l.calls[kSink])
	r.add("entangle.repair_self_s", l.self[kRepair], "s", l.calls[kRepair])
	r.add("entangle.repair_rounds", float64(tp.repair.rounds), "count", l.calls[kRepair])
	r.add("entangle.repaired_blocks", float64(tp.repair.repaired), "count", l.calls[kRepair])
	r.add("entangle.repair_read_blocks_per_block", ratio(float64(tp.repair.bytesRead)/blockSize, float64(tp.repair.repaired)), "ratio", tp.repair.repaired)
	r.add("entangle.degraded_blocks", float64(l.misses[kPrefetch]), "count", l.units[kPrefetch])
	r.add("cooperative.backup_self_s", l.self[kBackup], "s", l.calls[kBackup])
	clientFrames := l.calls[kPutMany] + l.calls[kGetMany] + l.calls[kGet] + l.calls[kPut] + l.calls[kStatMany]
	r.add("cooperative.frames_per_backup", ratio(float64(clientFrames), backups), "ratio", tp.backups)
	r.add("cooperative.read_self_s", l.self[kBrokerRead], "s", l.calls[kBrokerRead])
	for _, op := range []struct {
		name string
		k    int
	}{{"putmany", kPutMany}, {"getmany", kGetMany}, {"get", kGet}, {"statmany", kStatMany}} {
		r.add("transport."+op.name+"_calls", float64(l.calls[op.k]), "count", l.calls[op.k])
		r.add("transport."+op.name+"_s", l.busy[op.k], "s", l.calls[op.k])
	}
	r.add("transport.wire_s", l.module("transport"), "s", clientFrames)
	r.add("transport.bytes_in", float64(l.bytes[kGet]+l.bytes[kGetMany]), "bytes", l.calls[kGet]+l.calls[kGetMany])
	r.add("transport.bytes_out", float64(l.bytes[kPut]+l.bytes[kPutMany]), "bytes", l.calls[kPut]+l.calls[kPutMany])
	r.add("transport.copied_bytes_per_block", ratio(float64(tp.d.copied), float64(tp.blocks)), "B/block", tp.blocks)
	r.add("transport.framepool_hit_ratio", ratio(hit, poolTotal), "ratio", int64(poolTotal))
	r.add("transport.retries", float64(tp.d.counters["transport/pool.retries"]), "count", 1)
	r.add("transport.redials", float64(tp.d.counters["transport/pool.redials"]), "count", 1)
	r.add("transport.timeouts", float64(tp.d.counters["transport/pool.timeouts"]), "count", 1)
	r.add("tenant.self_s", l.module("tenant"), "s", l.calls[kTenantGet]+l.calls[kTenantPut]+l.calls[kTenantStat])
	r.add("tenant.quota_refusals", float64(tp.d.counters["tenant/quota.refused"]), "count", 1)
	r.add("segstore.put_calls", float64(l.calls[kSegPut]), "count", l.calls[kSegPut])
	r.add("segstore.put_s", l.busy[kSegPut], "s", l.calls[kSegPut])
	r.add("segstore.get_calls", float64(l.calls[kSegGet]), "count", l.calls[kSegGet])
	r.add("segstore.get_s", l.busy[kSegGet], "s", l.calls[kSegGet])
	r.add("segstore.stat_calls", float64(l.calls[kSegStat]), "count", l.calls[kSegStat])
	r.add("segstore.stat_s", l.busy[kSegStat], "s", l.calls[kSegStat])
	r.add("segstore.self_s", l.module("segstore"), "s", l.calls[kSegGet]+l.calls[kSegPut]+l.calls[kSegStat])
	r.add("segstore.miss_ratio", ratio(float64(l.misses[kSegGet]), float64(segCalls)), "ratio", segCalls)
	r.add("segstore.fsyncs", float64(fsyncs), "count", fsyncs)
	r.add("segstore.fsyncs_per_backup", ratio(float64(fsyncs), backups), "ratio", tp.backups)
	r.add("segstore.append_bytes_per_user_byte", ratio(float64(tp.d.counters["segstore/append.bytes"]), float64(written)), "B/B", written)
	r.add("runtime.gc_pause_s", float64(tp.d.pauseNs)/1e9, "s", tp.d.gcs)
	r.add("runtime.alloc_bytes_per_user_byte", ratio(float64(tp.d.alloc), float64(tp.bytes)), "B/B", tp.bytes)
	r.add("obs.trace_overhead", ratio(plain.mbs(), tp.mbs())-1, "ratio", 2)
	r.add("obs.ledger_gap", gap, "ratio", int64(len(tp.windows)))
	return r
}
