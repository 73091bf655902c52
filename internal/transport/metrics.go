// Metrics: the transport layer's own observability and the OpMetrics
// frame that exports the whole process's metrics to remote clients.
//
// Instrumentation side: every served request is counted into the
// process-global obs registry under the "transport" scope — per-op
// request count, request bytes, service latency and connection
// failures, plus the inflight gauge and the frame-pool hit rate. The
// handles are resolved once at package init; the per-request cost is a
// clock read and a few uncontended atomic adds.
//
// Export side: OpMetrics is a bodiless control query (control.go) with
// an empty key. Its reply is the JSON obs.Snapshot, held to the
// snapshot's own layout version and to the histogram bucket bound.
package transport

import (
	"context"
	"fmt"
	"net"
	"time"

	"aecodes/internal/obs"
)

// opMetrics is one operation's instrumentation handles.
type opMetrics struct {
	count   *obs.Counter
	errors  *obs.Counter
	bytes   *obs.Counter
	latency *obs.Histogram
}

var (
	transportScope = obs.Default.Scope("transport")

	// obsInflight mirrors Server.inflight into the registry (delta
	// style, across all servers in the process).
	obsInflight = transportScope.Gauge("inflight")

	// Frame-pool effectiveness: hit = served from a pool, miss = pooled
	// bucket was empty, unpooled = size outside the pooled range.
	obsPoolHit      = transportScope.Counter("framepool.hit")
	obsPoolMiss     = transportScope.Counter("framepool.miss")
	obsPoolUnpooled = transportScope.Counter("framepool.unpooled")

	// Pool self-healing: how often connections are poisoned and
	// evicted, how the background redials fare, how many operations
	// were retried on a surviving connection, and how many requests
	// died waiting on the response deadline.
	obsPoolPoisoned   = transportScope.Counter("pool.poisoned")
	obsPoolRedials    = transportScope.Counter("pool.redials")
	obsPoolRedialFail = transportScope.Counter("pool.redial.failures")
	obsPoolRetries    = transportScope.Counter("pool.retries")
	obsPoolTimeouts   = transportScope.Counter("pool.timeouts")

	// opTab maps an op byte to its handles; unknown ops share the
	// "other" slot. Built once at init so serveConn never touches a map.
	opTab [256]*opMetrics
)

func newOpMetrics(name string) *opMetrics {
	return &opMetrics{
		count:   transportScope.Counter(name + ".count"),
		errors:  transportScope.Counter(name + ".errors"),
		bytes:   transportScope.Counter(name + ".bytes"),
		latency: transportScope.Histogram(name + ".latency"),
	}
}

func init() {
	other := newOpMetrics("other")
	for i := range opTab {
		opTab[i] = other
	}
	for op, name := range map[byte]string{
		OpGet:      "get",
		OpPut:      "put",
		OpDel:      "del",
		OpPutMany:  "putmany",
		OpGetMany:  "getmany",
		OpHello:    "hello",
		OpStatMany: "statmany",
		OpNodeStat: "nodestat",
		OpUsage:    "usage",
		OpMetrics:  "metrics",
	} {
		opTab[op] = newOpMetrics(name)
	}
}

// metricsReply is the OpMetrics response body.
type metricsReply obs.Snapshot

func (m metricsReply) validate() error {
	if m.Version != obs.SnapshotVersion {
		return fmt.Errorf("transport: unsupported metrics snapshot layout %d", m.Version)
	}
	for key, h := range m.Hists {
		if len(h.Buckets) > obs.NumBuckets {
			return fmt.Errorf("transport: histogram %q carries %d buckets (max %d)", key, len(h.Buckets), obs.NumBuckets)
		}
	}
	return nil
}

// serveMetrics answers one OpMetrics frame with the process-global
// registry's snapshot. A key or a request body is refused: there is
// nothing to parameterise.
func (s *Server) serveMetrics(conn net.Conn, key string, payload []byte) error {
	if key != "" {
		return writeResponse(conn, StatusError, []byte("transport: metrics request carries a key"))
	}
	if err := decodeControl(payload, nil); err != nil {
		return writeResponse(conn, StatusError, []byte(err.Error()))
	}
	resp, err := encodeControl(metricsReply(obs.Default.Snapshot()))
	if err != nil {
		return writeResponse(conn, StatusError, []byte(err.Error()))
	}
	return writeResponse(conn, StatusOK, resp)
}

// Metrics fetches the node's process metrics snapshot.
func (p *PoolClient) Metrics(ctx context.Context) (obs.Snapshot, error) {
	return withConnValue(ctx, p, func(c *pipeConn) (obs.Snapshot, error) {
		var reply metricsReply
		err := queryControl(ctx, c, OpMetrics, "", &reply)
		return obs.Snapshot(reply), err
	})
}

// recordServed charges one served request to the op's metrics; called
// by serveConn after the handler ran. ioErr is the connection-level
// failure (if any) that will tear the connection down — remote-error
// *responses* are not connection failures and do not count here.
func recordServed(op byte, reqBytes int, start time.Time, ioErr error) {
	m := opTab[op]
	m.count.Inc()
	m.bytes.Add(int64(reqBytes))
	m.latency.Record(time.Since(start).Nanoseconds())
	if ioErr != nil {
		m.errors.Inc()
	}
}
