package main

import (
	"sort"
	"sync"
	"time"
)

// kind is one span type: the module it belongs to, the operation name,
// and its depth in the call stack of a request. Deeper spans run inside
// shallower ones, so at any instant the time belongs to the deepest
// layer that is busy.
type kind struct {
	module string
	op     string
	depth  int
}

// Every span kind the wrappers record. The index is the kind's ID. The
// archive's BlockStore calls belong to segstore: their self time is the
// segstore.Lattice view's, the segment store's own calls run inside.
var kinds = [numKinds]kind{
	kWrite:      {"aecodes", "write", 0},
	kClose:      {"aecodes", "close", 0},
	kRead:       {"aecodes", "read", 0},
	kBackup:     {"cooperative", "backup", 0},
	kRepair:     {"cooperative", "repair", 0},
	kBrokerRead: {"cooperative", "read", 0},
	kSink:       {"segstore", "lattice.put", 1},
	kPrefetch:   {"segstore", "lattice.getmany", 1},
	kDegraded:   {"segstore", "lattice.get", 1},
	kPutMany:    {"transport", "putmany", 1},
	kGetMany:    {"transport", "getmany", 1},
	kGet:        {"transport", "get", 1},
	kPut:        {"transport", "put", 1},
	kStatMany:   {"transport", "statmany", 1},
	kHello:      {"transport", "hello", 1},
	kTenantGet:  {"tenant", "get", 2},
	kTenantPut:  {"tenant", "put", 2},
	kTenantDel:  {"tenant", "del", 2},
	kTenantStat: {"tenant", "stat", 2},
	kSegGet:     {"segstore", "get", 3},
	kSegPut:     {"segstore", "put", 3},
	kSegStat:    {"segstore", "stat", 3},
	kSegDel:     {"segstore", "del", 3},
	kSegEach:    {"segstore", "each", 3},
}

const (
	kWrite = iota
	kClose
	kRead
	kBackup
	kRepair
	kBrokerRead
	kSink
	kPrefetch
	kDegraded
	kPutMany
	kGetMany
	kGet
	kPut
	kStatMany
	kHello
	kTenantGet
	kTenantPut
	kTenantDel
	kTenantStat
	kSegGet
	kSegPut
	kSegStat
	kSegDel
	kSegEach
	numKinds
)

// span is one timed call at a layer boundary. Times are nanoseconds
// since the tracer's base. lane groups the spans of one closed loop:
// a server span belongs to the lane of the client whose request it
// serves, found from the connection's tenant or the key's namespace.
type span struct {
	kind       uint8
	lane       uint8
	start, end int64
	n          int64 // work units: blocks or keys moved by the call
	miss       int64 // keys asked for but absent (reads only)
	bytes      int64 // payload bytes moved
}

// tracer keeps every span in memory until the workload ends. A nil
// *tracer records nothing: an untraced run installs no wrapper and pays
// one nil check per top-level call.
type tracer struct {
	base  time.Time
	mu    sync.Mutex
	spans []span // guarded by mu
}

func newTracer() *tracer { return &tracer{base: time.Now(), spans: make([]span, 0, 1<<16)} }

// now returns nanoseconds since the tracer's base.
func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// begin opens a span of kind k on a lane; on a nil tracer (an untraced
// run) it does nothing.
func (t *tracer) begin(k int, lane uint8) span {
	if t == nil {
		return span{}
	}
	return span{kind: uint8(k), lane: lane, start: t.now()}
}

// end closes a span opened by begin with its work units, misses and
// payload bytes.
func (t *tracer) end(s span, n, miss, bytes int64) {
	if t == nil {
		return
	}
	s.n, s.miss, s.bytes = n, miss, bytes
	t.add(s)
}

func (t *tracer) add(s span) {
	s.end = t.now()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// window is one timed phase of one lane: the wall time a closed loop
// spent, against which the lane's self times are summed.
type window struct {
	lane       uint8
	start, end int64
}

// ledger is the result of attributing every traced nanosecond to the
// deepest busy layer of its lane.
type ledger struct {
	self   [numKinds]float64 // seconds
	calls  [numKinds]int64
	busy   [numKinds]float64 // Σ span durations, seconds
	units  [numKinds]int64
	misses [numKinds]int64
	bytes  [numKinds]int64
	wall   float64 // Σ window lengths, seconds
	// sinkConc is Σ sink span time over the time any sink span is open:
	// how many pipeline workers are inside the store at once.
	sinkConc float64
}

// selfSum is the total attributed time: the ledger's left-hand side.
func (l *ledger) selfSum() float64 {
	var s float64
	for _, v := range l.self {
		s += v
	}
	return s
}

// module sums the self time of every kind of one module.
func (l *ledger) module(mod string) float64 {
	var s float64
	for k, kd := range kinds {
		if kd.module == mod {
			s += l.self[k]
		}
	}
	return s
}

// build computes the ledger over the given windows. A span belongs to
// the window of its lane it starts in, clipped to that window's end;
// spans in no window (set-up, warm-up, verification) are ignored.
func (t *tracer) build(windows []window) ledger {
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	var l ledger
	type event struct {
		at    int64
		kind  uint8
		delta int
	}
	byLane := map[uint8][]window{}
	for _, w := range windows {
		byLane[w.lane] = append(byLane[w.lane], w)
		l.wall += float64(w.end-w.start) / 1e9
	}
	events := map[uint8][]event{}
	var sinkSpans []span
	for _, s := range spans {
		for _, w := range byLane[s.lane] {
			if s.start < w.start || s.start >= w.end {
				continue
			}
			end := min(s.end, w.end)
			l.calls[s.kind]++
			l.units[s.kind] += s.n
			l.misses[s.kind] += s.miss
			l.bytes[s.kind] += s.bytes
			l.busy[s.kind] += float64(end-s.start) / 1e9
			events[s.lane] = append(events[s.lane], event{s.start, s.kind, 1}, event{end, s.kind, -1})
			if s.kind == kSink {
				sinkSpans = append(sinkSpans, span{start: s.start, end: end})
			}
			break
		}
	}
	for _, evs := range events {
		sort.Slice(evs, func(i, j int) bool {
			if evs[i].at != evs[j].at {
				return evs[i].at < evs[j].at
			}
			return evs[i].delta < evs[j].delta
		})
		var active [numKinds]int
		prev := int64(0)
		for _, e := range evs {
			if dt := e.at - prev; dt > 0 {
				attribute(&l, &active, float64(dt)/1e9)
			}
			active[e.kind] += e.delta
			prev = e.at
		}
	}
	if u := union(sinkSpans); u > 0 {
		l.sinkConc = l.busy[kSink] / u
	}
	return l
}

// attribute gives dt to the deepest busy layer, split evenly between
// the spans open at that depth.
func attribute(l *ledger, active *[numKinds]int, dt float64) {
	deepest, open := -1, 0
	for k, n := range active {
		if n <= 0 {
			continue
		}
		switch d := kinds[k].depth; {
		case d > deepest:
			deepest, open = d, n
		case d == deepest:
			open += n
		}
	}
	if deepest < 0 {
		return
	}
	for k, n := range active {
		if n > 0 && kinds[k].depth == deepest {
			l.self[k] += dt * float64(n) / float64(open)
		}
	}
}

// union returns the seconds covered by at least one of the spans.
func union(spans []span) float64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	var total int64
	var curS, curE int64 = -1, -1
	for _, s := range spans {
		if s.start > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = s.start, s.end
			continue
		}
		curE = max(curE, s.end)
	}
	if curE > curS {
		total += curE - curS
	}
	return float64(total) / 1e9
}
