package main

import (
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made (or, for the server-side
// handler spans, one ServeHTTP call it wrapped). Spans of one HTTP
// request share its request ID, which is the ID of the client span
// around that request; layer calls the benchmark makes on the same
// request's inputs are its children.
type span struct {
	id, parent int64 // parent 0: a root
	rid        int64 // request ID; 0 outside any request
	name       string
	start, end int64 // ns since the recorder's epoch
	ops        int   // operations the span covers (points of a per-point loop)
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// open starts a span and returns it; close records it. A nil recorder
// records nothing, so untraced code paths pay only the nil check.
func (r *recorder) open(name string, parent, rid int64) span {
	if r == nil {
		return span{}
	}
	id := r.next.Add(1)
	if rid == 0 && parent == 0 {
		rid = id
	}
	return span{id: id, parent: parent, rid: rid, name: name, start: r.now(), ops: 1}
}

func (r *recorder) close(s span, ops int) {
	if r == nil {
		return
	}
	s.end = r.now()
	s.ops = ops
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) all() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// spanHeader carries the client span's ID to the server-side wrapper.
const spanHeader = "Bench-Span"

// spanHandler records a child span around every ServeHTTP call whose
// request carries a client span ID; other requests pass through.
type spanHandler struct {
	next http.Handler
	rec  *recorder
}

func (h *spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent, err := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
	if err != nil || parent <= 0 {
		h.next.ServeHTTP(w, r)
		return
	}
	name := "serve.handler"
	switch {
	case r.Method == http.MethodPatch:
		name = "serve.patch"
	case r.URL.Path != "/v1/locate":
		name = "serve.sched"
	}
	s := h.rec.open(name, parent, parent)
	h.next.ServeHTTP(w, r)
	h.rec.close(s, 1)
}

// selfTimes returns each span's self time in ns: its duration minus the
// part of its interval that its children cover. Children need not lie
// inside their parent: a layer call replayed on a request's inputs
// after the timed window covers none of the request's interval.
func selfTimes(spans []span) map[int64]int64 {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		cs := kids[s.id]
		sort.Slice(cs, func(a, b int) bool { return cs[a].start < cs[b].start })
		covered, reach := int64(0), s.start
		for _, c := range cs {
			lo, hi := max(c.start, reach), min(c.end, s.end)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.id] = s.end - s.start - covered
	}
	return self
}
