package transport

import (
	"reflect"
	"strings"
	"testing"

	"aecodes/internal/obs"
)

// Control body kinds FuzzControlFrame decodes into (kind mod 3).
const (
	fuzzNodeStat uint8 = iota
	fuzzUsage
	fuzzMetrics
)

// FuzzControlFrame feeds arbitrary payloads to the control decoder, one
// body kind per input: the heartbeat (keyed by its node ID), the usage
// reply and the metrics reply. The decoder must never panic, never
// accept a body that breaks the declared limits — entry counts, ID
// lengths, non-negative counters, the snapshot layout — and anything it
// accepts must survive a re-encode: decode(encode(decode(x))) must
// equal decode(x). Byte stability is not asserted; JSON whitespace and
// key order are free. FuzzNodeStatFrame, FuzzUsageFrame and
// FuzzMetricsFrame run the same checks with the kind held fixed; they
// stay as thin entry points so their seed corpora keep running, and
// each corpus file lives under exactly one target.
func FuzzControlFrame(f *testing.F) {
	// Seeds shared with the per-kind targets; the hostile shapes no
	// per-kind corpus holds live in testdata/fuzz/FuzzControlFrame.
	for _, s := range nodeStatSeeds(f) {
		f.Add(fuzzNodeStat, s.id, s.payload)
	}
	for _, p := range usageSeeds(f) {
		f.Add(fuzzUsage, "", p)
	}
	for _, p := range metricsSeeds(f) {
		f.Add(fuzzMetrics, "", p)
	}

	f.Fuzz(func(t *testing.T, kind uint8, id string, payload []byte) {
		switch kind % 3 {
		case fuzzNodeStat:
			checkNodeStatFrame(t, id, payload)
		case fuzzUsage:
			checkUsageFrame(t, payload)
		case fuzzMetrics:
			checkMetricsFrame(t, payload)
		}
	})
}

// FuzzNodeStatFrame runs the heartbeat checks of FuzzControlFrame over
// arbitrary frame keys and payloads.
func FuzzNodeStatFrame(f *testing.F) {
	for _, s := range nodeStatSeeds(f) {
		f.Add(s.id, s.payload)
	}
	f.Fuzz(checkNodeStatFrame)
}

// FuzzUsageFrame runs the usage-reply checks of FuzzControlFrame.
func FuzzUsageFrame(f *testing.F) {
	for _, p := range usageSeeds(f) {
		f.Add(p)
	}
	f.Fuzz(checkUsageFrame)
}

// FuzzMetricsFrame runs the metrics-reply checks of FuzzControlFrame.
func FuzzMetricsFrame(f *testing.F) {
	for _, p := range metricsSeeds(f) {
		f.Add(p)
	}
	f.Fuzz(checkMetricsFrame)
}

type nodeStatSeed struct {
	id      string
	payload []byte
}

// nodeStatSeeds returns two well-formed heartbeats from the encoder and
// hostile ones: wrong version, truncated JSON, trailing bytes, an empty
// frame key and a negative counter.
func nodeStatSeeds(f *testing.F) []nodeStatSeed {
	v := string(ControlVersion)
	full := mustEncodeControl(f, NodeStat{
		ID: "n2", Addr: "10.0.0.2:7002", Capacity: 1 << 30, Used: 4096,
		Segments: 7, DeadBytes: 512,
		Tenants: []TenantUsage{{Tenant: "", Bytes: 1, Blocks: 1}, {Tenant: "acme", Bytes: 2048, Blocks: 4}},
	})
	return []nodeStatSeed{
		{"n1", mustEncodeControl(f, NodeStat{ID: "n1", Addr: "127.0.0.1:7001"})},
		{"n2", full},
		{"n", []byte{ControlVersion + 1}},
		{"n", full[:len(full)/2]},
		{"n", append(append([]byte{}, full...), '{', '}')},
		{"", full},
		{"n", []byte(v + `{"addr":"a:1","capacity":-1}`)},
	}
}

// usageSeeds returns two well-formed usage replies from the encoder and
// hostile ones: a count over the limit, a truncated entry, trailing
// bytes and a negative counter.
func usageSeeds(f *testing.F) [][]byte {
	v := string(ControlVersion)
	full := mustEncodeControl(f, usageReply{Tenants: []TenantUsage{
		{Tenant: "", Bytes: 0, Blocks: 0},
		{Tenant: "acme", Bytes: 1 << 40, Blocks: 12345},
	}})
	return [][]byte{
		mustEncodeControl(f, usageReply{}),
		full,
		[]byte(v + `{"tenants":[` + strings.Repeat("{},", MaxBatchEntries) + `{}]}`),
		full[:len(full)-1],
		append(append([]byte{}, full...), '\n'),
		[]byte(v + `{"tenants":[{"tenant":"acme","bytes":-1,"blocks":0}]}`),
	}
}

// metricsSeeds returns two well-formed metrics replies from the encoder
// (an empty registry; counters, gauges and a histogram) and hostile
// ones: an empty frame, wrong wire version, truncated JSON, a non-JSON
// body, wrong layout version, an oversized bucket array and trailing
// bytes after the JSON document.
func metricsSeeds(f *testing.F) [][]byte {
	reg := obs.NewRegistry()
	sc := reg.Scope("transport")
	sc.Counter("get.count").Add(42)
	sc.Gauge("inflight").Set(-3)
	h := sc.Histogram("get.latency")
	for i := int64(1); i < 1<<20; i <<= 1 {
		h.Record(i)
	}
	v := string(ControlVersion)
	full := mustEncodeControl(f, metricsReply(reg.Snapshot()))
	buckets := "0" + strings.Repeat(",0", obs.NumBuckets+4)
	return [][]byte{
		mustEncodeControl(f, metricsReply(obs.NewRegistry().Snapshot())),
		full,
		{},
		{ControlVersion + 1},
		full[:len(full)/2],
		[]byte(v + "not json"),
		[]byte(v + `{"version":99}`),
		[]byte(v + `{"version":1,"hists":{"x":{"count":1,"buckets":[` + buckets + `]}}}`),
		append(append([]byte{}, full...), '}'),
	}
}

func mustEncodeControl(f *testing.F, body controlBody) []byte {
	f.Helper()
	payload, err := encodeControl(body)
	if err != nil {
		f.Fatal(err)
	}
	return payload
}

// checkNodeStatFrame decodes payload as the heartbeat of node id and
// asserts the heartbeat limits and a stable round trip.
func checkNodeStatFrame(t *testing.T, id string, payload []byte) {
	stat := NodeStat{ID: id}
	if decodeControl(payload, &stat) != nil {
		return // malformed input must just error
	}
	if stat.ID != id || id == "" {
		t.Fatalf("decoded ID %q from frame key %q", stat.ID, id)
	}
	if len(stat.Addr) > MaxKeyLen {
		t.Fatalf("accepted oversized addr (%d bytes)", len(stat.Addr))
	}
	for _, v := range []int64{stat.Capacity, stat.Used, stat.Segments, stat.DeadBytes} {
		if v < 0 {
			t.Fatalf("accepted negative counter %d", v)
		}
	}
	checkUsages(t, stat.Tenants)
	again := NodeStat{ID: id}
	reDecode(t, stat, &again)
	if !reflect.DeepEqual(again, stat) {
		t.Fatalf("heartbeat round trip not stable:\n  first:  %+v\n  second: %+v", stat, again)
	}
}

// checkUsageFrame decodes payload as a usage reply and asserts the
// usage limits and a stable round trip.
func checkUsageFrame(t *testing.T, payload []byte) {
	var reply usageReply
	if decodeControl(payload, &reply) != nil {
		return
	}
	checkUsages(t, reply.Tenants)
	var again usageReply
	reDecode(t, reply, &again)
	if !reflect.DeepEqual(again, reply) {
		t.Fatalf("usage round trip not stable:\n  first:  %+v\n  second: %+v", reply, again)
	}
}

// checkMetricsFrame decodes payload as a metrics reply and asserts the
// snapshot layout and a stable round trip.
func checkMetricsFrame(t *testing.T, payload []byte) {
	var snap metricsReply
	if decodeControl(payload, &snap) != nil {
		return
	}
	if snap.Version != obs.SnapshotVersion {
		t.Fatalf("accepted layout version %d", snap.Version)
	}
	for k, h := range snap.Hists {
		if len(h.Buckets) > obs.NumBuckets {
			t.Fatalf("accepted %d buckets for %q", len(h.Buckets), k)
		}
	}
	var again metricsReply
	reDecode(t, snap, &again)
	if !reflect.DeepEqual(normalize(snap), normalize(again)) {
		t.Fatalf("metrics round trip not stable:\n  first:  %+v\n  second: %+v", snap, again)
	}
}

// checkUsages asserts the limits every accepted usage list keeps.
func checkUsages(t *testing.T, usages []TenantUsage) {
	t.Helper()
	if len(usages) > MaxBatchEntries {
		t.Fatalf("accepted %d usage entries", len(usages))
	}
	for _, u := range usages {
		if len(u.Tenant) > MaxKeyLen {
			t.Fatalf("accepted oversized tenant id (%d bytes)", len(u.Tenant))
		}
		if u.Bytes < 0 || u.Blocks < 0 {
			t.Fatalf("accepted negative usage %+v", u)
		}
	}
}

// reDecode encodes an accepted body and decodes the result into into.
func reDecode(t *testing.T, body, into controlBody) {
	t.Helper()
	re, err := encodeControl(body)
	if err != nil {
		t.Fatalf("re-encode of accepted body failed: %v", err)
	}
	if err := decodeControl(re, into); err != nil {
		t.Fatalf("re-decode of accepted body failed: %v", err)
	}
}

// normalize maps empty and nil collections onto one shape, since
// encoding/json's omitempty erases the distinction by design.
func normalize(s metricsReply) metricsReply {
	if len(s.Counters) == 0 {
		s.Counters = nil
	}
	if len(s.Gauges) == 0 {
		s.Gauges = nil
	}
	if len(s.Hists) == 0 {
		s.Hists = nil
	}
	for k, h := range s.Hists {
		if len(h.Buckets) == 0 {
			h.Buckets = nil
			s.Hists[k] = h
		}
	}
	return s
}
