package transport

import (
	"fmt"
	"net"
	"runtime"
	"strings"
	"testing"
)

// TestControlFramesRefuseMalformed sends hostile payloads for every
// control op over one raw connection: each must earn StatusError, and
// the connection must keep serving — a valid frame of the same op right
// after still succeeds. The handshake's gate also holds against a
// resolver-less node: only the anonymous hello passes. The reply
// bodies, which a server never decodes, go through the client's decoder
// with the same hostile shapes.
func TestControlFramesRefuseMalformed(t *testing.T) {
	addr := clusterTestServer(t, &fakeClusterHandler{})
	// Raw frames, not a PoolClient: the pool recycles a connection on
	// some refusals, which would hide whether the server kept it open.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	exchange := func(op byte, key string, payload []byte) (byte, []byte) {
		t.Helper()
		if err := writeRequest(conn, op, key, payload); err != nil {
			t.Fatal(err)
		}
		status, resp, err := readResponse(conn)
		if err != nil {
			t.Fatalf("connection dead after op %d: %v", op, err)
		}
		return status, resp
	}

	v := string(ControlVersion)
	bad := string(ControlVersion + 1)
	frames := []struct {
		name    string
		op      byte
		key     string
		payload string
		want    byte
	}{
		{"anonymous hello on a single-tenant node", OpHello, "", v, StatusOK},
		{"named hello on a single-tenant node", OpHello, "alice", v, StatusError},
		{"hello: wrong version", OpHello, "", bad, StatusError},
		{"hello: bytes after the version", OpHello, "", v + "{}", StatusError},
		{"hello: a body where none is defined", OpHello, "", v + `{"tenant":"x"}`, StatusError},
		{"hello: still served", OpHello, "", v, StatusOK},

		{"nodestat: wrong version", OpNodeStat, "n1", bad + `{"addr":"a:1"}`, StatusError},
		{"nodestat: bytes after the document", OpNodeStat, "n1", v + `{"addr":"a:1"}{}`, StatusError},
		{"nodestat: unknown field", OpNodeStat, "n1", v + `{"addr":"a:1","zone":"z"}`, StatusError},
		{"nodestat: negative counter", OpNodeStat, "n1", v + `{"addr":"a:1","used":-1}`, StatusError},
		{"nodestat: negative tenant usage", OpNodeStat, "n1", v + `{"addr":"a:1","tenants":[{"tenant":"t","bytes":-1,"blocks":0}]}`, StatusError},
		{"nodestat: too many values", OpNodeStat, "n1", v + `{"addr":"a:1","tenants":[` + strings.Repeat("{},", maxControlValues) + `{}]}`, StatusError},
		{"nodestat: still served", OpNodeStat, "n1", v + `{"addr":"a:1"}`, StatusOK},

		{"usage: wrong version", OpUsage, "", bad, StatusError},
		{"usage: bytes after the version", OpUsage, "", v + "{}", StatusError},
		{"usage: a body where none is defined", OpUsage, "", v + `{"tenants":[]}`, StatusError},
		{"usage: still served", OpUsage, "", v, StatusOK},

		{"metrics: wrong version", OpMetrics, "", bad, StatusError},
		{"metrics: bytes after the version", OpMetrics, "", v + "{}", StatusError},
		{"metrics: a body where none is defined", OpMetrics, "", v + `{"version":1}`, StatusError},
		{"metrics: still served", OpMetrics, "", v, StatusOK},

		{"put after refusals", OpPut, "still", "alive", StatusOK},
	}
	for _, f := range frames {
		if status, resp := exchange(f.op, f.key, []byte(f.payload)); status != f.want {
			t.Errorf("%s: status %d (%q), want %d", f.name, status, resp, f.want)
		}
	}

	replies := []struct {
		name  string
		body  func() controlBody
		valid string
		bad   []string
	}{
		{"usage reply", func() controlBody { return new(usageReply) }, v + `{"tenants":[]}`, []string{
			bad + `{"tenants":[]}`,
			v + `{"tenants":[]} `,
			v + `{"tenants":[],"total":0}`,
			v + `{"tenants":[{"tenant":"t","bytes":0,"blocks":-1}]}`,
		}},
		{"metrics reply", func() controlBody { return new(metricsReply) }, v + `{"version":1}`, []string{
			bad + `{"version":1}`,
			v + `{"version":1}{}`,
			v + `{"version":1,"uptime":3}`,
		}},
	}
	for _, rp := range replies {
		for _, p := range rp.bad {
			if err := decodeControl([]byte(p), rp.body()); err == nil {
				t.Errorf("%s: decoder accepted %q", rp.name, p)
			}
		}
		if err := decodeControl([]byte(rp.valid), rp.body()); err != nil {
			t.Errorf("%s: decoder refused valid %q: %v", rp.name, rp.valid, err)
		}
	}
}

// TestControlDecodeAllocationBounded feeds the decoder frame-sized
// bodies of tiny values, each of which would decode to many times its
// own size: empty tenant entries in a heartbeat and a usage reply, zero
// buckets and one-byte gauge names in a metrics reply. Each must be
// refused before decoding, allocating next to nothing.
func TestControlDecodeAllocationBounded(t *testing.T) {
	const size = MaxPayloadLen
	fill := func(prefix, elem, suffix string) []byte {
		n := (size - len(prefix) - len(suffix) - 1) / len(elem)
		return []byte(string(ControlVersion) + prefix + strings.Repeat(elem, n) + suffix)
	}
	var gauges strings.Builder
	for i := 0; gauges.Len() < size-64; i++ {
		fmt.Fprintf(&gauges, `"%x":0,`, i)
	}
	cases := []struct {
		name    string
		body    controlBody
		payload []byte
	}{
		{"heartbeat tenants", &NodeStat{ID: "n"}, fill(`{"tenants":[`, `{},`, `{}]}`)},
		{"usage reply tenants", new(usageReply), fill(`{"tenants":[`, `{},`, `{}]}`)},
		{"metrics buckets", new(metricsReply), fill(`{"version":1,"hists":{"h":{"buckets":[`, `0,`, `0]}}}`)},
		{"metrics gauges", new(metricsReply), []byte(string(ControlVersion) + `{"version":1,"gauges":{` + gauges.String() + `"x":0}}`)},
	}
	for _, tc := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := decodeControl(tc.payload, tc.body)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: decoder accepted %d MiB of values", tc.name, len(tc.payload)>>20)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d > 1<<20 {
			t.Errorf("%s: refusing %d MiB allocated %d bytes", tc.name, len(tc.payload)>>20, d)
		}
	}
}

// TestControlLargestHeartbeatRoundTrips checks that the value bound
// leaves room for the largest heartbeat validate accepts.
func TestControlLargestHeartbeatRoundTrips(t *testing.T) {
	stat := NodeStat{ID: "n", Addr: "a:1", Capacity: 1 << 40, Used: 1 << 30}
	for i := 0; i < MaxBatchEntries; i++ {
		stat.Tenants = append(stat.Tenants, TenantUsage{Tenant: fmt.Sprintf("t%d", i), Bytes: int64(i), Blocks: 1})
	}
	payload, err := encodeControl(stat)
	if err != nil {
		t.Fatal(err)
	}
	got := NodeStat{ID: "n"}
	if err := decodeControl(payload, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Tenants) != MaxBatchEntries || got.Tenants[MaxBatchEntries-1] != stat.Tenants[MaxBatchEntries-1] {
		t.Fatalf("decoded %d tenants, last %+v", len(got.Tenants), got.Tenants[len(got.Tenants)-1])
	}
}
