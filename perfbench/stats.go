package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"
)

// minBeyond is how many samples must lie above a reported tail percentile.
const minBeyond = 10

// nearestRank returns the q-quantile of sorted by the nearest-rank rule.
func nearestRank(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(q*float64(len(sorted)))) - 1
	if k < 0 {
		k = 0
	}
	return sorted[k]
}

// tailPercentile returns the highest percentile of xs, at most want, that
// has at least minBeyond samples above it, and the percentile it used. A
// sample too small to leave minBeyond samples above its median reports
// the median.
func tailPercentile(xs []float64, want float64) (value, q float64) {
	n := len(xs)
	if n == 0 {
		return 0, want
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	k := int(math.Ceil(want*float64(n))) - 1
	if lim := n - 1 - minBeyond; k > lim {
		k = lim
	}
	if med := int(math.Ceil(0.5*float64(n))) - 1; k < med {
		k = med
	}
	return sorted[k], float64(k+1) / float64(n)
}

// median returns the median of xs: the middle value, or the mean of the
// two middle values of an even-sized sample.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// opLog collects the outcome of every operation a measured phase attempted.
type opLog struct {
	mu        sync.Mutex
	start     time.Time
	limit     time.Duration // latency limit for goodput
	ops       []opRec       // successful operations
	attempted int
	failed    int // refused, failed or check-failed
	checkErrs []string
}

type opRec struct {
	end time.Duration // completion, from the phase start
	lat float64       // ms
}

func newOpLog(limit time.Duration) *opLog { return &opLog{start: time.Now(), limit: limit} }

// ok records a successful, checked operation that took d.
func (l *opLog) ok(d time.Duration) {
	end := time.Since(l.start)
	l.mu.Lock()
	l.attempted++
	l.ops = append(l.ops, opRec{end, ms(d)})
	l.mu.Unlock()
}

// fail records a refused or failed operation; check failures also keep
// their reason so the run can report it.
func (l *opLog) fail(check bool, reason string) {
	l.mu.Lock()
	l.attempted++
	l.failed++
	if check && len(l.checkErrs) < 20 {
		l.checkErrs = append(l.checkErrs, reason)
	}
	l.mu.Unlock()
}

// checkError marks a failed output check, as opposed to a refusal.
type checkError struct{ msg string }

func (e *checkError) Error() string { return e.msg }

// phase is the summary of one measured phase.
type phase struct {
	elapsed   time.Duration
	attempted int
	failed    int
	okOps     int
	opsPerSec float64   // OK per second, median over windows
	goodput   float64   // OK within the limit per second, median over windows
	p50       float64   // median latency, median over windows
	p99       float64   // over the whole phase
	p99q      float64   // percentile actually reported as p99_ms
	windows   []float64 // each window's ops per second
	meanMS    float64
	heapMB    float64
	mallocs   uint64
	bytes     uint64
	checkErrs []string
}

// memSnap records allocation counters at the start of a phase.
type memSnap struct{ mallocs, bytes uint64 }

func readMem() memSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSnap{m.Mallocs, m.TotalAlloc}
}

// summarize closes a phase: rates and median latency per window, the
// tail over the whole phase, counts, allocation deltas and the live heap
// after a forced GC. cuts, when set, are the ends of the windows (offsets
// from the phase start), and rates and the median are medians over the
// windows; otherwise the whole phase is one window. tail, when set,
// replaces the latencies the tail percentile is taken over.
func summarize(l *opLog, start memSnap, cuts []time.Duration, tail []float64) phase {
	elapsed := time.Since(l.start)
	end := readMem()
	// Two collections: the first moves sync.Pool contents to the victim
	// cache, the second frees them, so pooled scratch does not count as
	// live heap.
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	l.mu.Lock()
	defer l.mu.Unlock()
	p := phase{
		elapsed:   elapsed,
		attempted: l.attempted,
		failed:    l.failed,
		okOps:     len(l.ops),
		heapMB:    float64(m.HeapAlloc) / (1 << 20),
		mallocs:   end.mallocs - start.mallocs,
		bytes:     end.bytes - start.bytes,
		checkErrs: append([]string(nil), l.checkErrs...),
	}
	if cuts == nil {
		cuts = []time.Duration{elapsed}
	}
	if last := len(cuts) - 1; cuts[last] < elapsed {
		cuts = append(cuts[:last:last], elapsed) // stragglers land in the last window
	}
	limitMS := ms(l.limit)
	var rates, goods, p50s, all []float64
	from := time.Duration(0)
	for _, to := range cuts {
		var lat []float64
		within := 0
		for _, o := range l.ops {
			if o.end >= from && (o.end < to || to == elapsed) {
				lat = append(lat, o.lat)
				if o.lat <= limitMS {
					within++
				}
			}
		}
		secs := (to - from).Seconds()
		rates = append(rates, ratio(float64(len(lat)), secs))
		goods = append(goods, ratio(float64(within), secs))
		p50s = append(p50s, median(lat))
		from = to
	}
	for _, o := range l.ops {
		all = append(all, o.lat)
	}
	if tail == nil {
		tail = all
	}
	p.windows = rates
	p.opsPerSec, p.goodput, p.p50 = median(rates), median(goods), median(p50s)
	p.meanMS = mean(all)
	p.p99, p.p99q = tailPercentile(tail, 0.99)
	return p
}

// span is one timed call into a layer. Spans of one operation share ID;
// Parent names the span that caused it ("" for a root).
type span struct {
	Name   string
	ID     string
	Parent string
	Start  time.Time
	End    time.Time
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans in memory for the traced phase. A nil tracer records
// nothing, so untraced phases pay one nil check per boundary.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) record(name, id, parent string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{name, id, parent, start, end})
	t.mu.Unlock()
}

// byName returns the recorded spans with the given name.
func (t *tracer) byName(name string) []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// meanMS is the mean duration of the named spans in milliseconds.
func (t *tracer) meanMS(name string) float64 {
	var xs []float64
	for _, s := range t.byName(name) {
		xs = append(xs, ms(s.dur()))
	}
	return mean(xs)
}

// selfTime is parent's duration minus the part of it that children cover;
// overlapping children (parallel shards) count once.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, c := range children {
		a, b := c.Start, c.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var covered time.Duration
	var curA, curB time.Time
	for i, v := range ivs {
		if i == 0 || v.a.After(curB) {
			covered += curB.Sub(curA)
			curA, curB = v.a, v.b
			continue
		}
		if v.b.After(curB) {
			curB = v.b
		}
	}
	covered += curB.Sub(curA)
	return parent.dur() - covered
}

// export writes the spans as Chrome trace-event JSON (one track per span
// name, microsecond timestamps relative to the tracer's start).
func (t *tracer) export(path string) error {
	if t == nil || path == "" {
		return nil
	}
	type event struct {
		Name string            `json:"name"`
		Cat  string            `json:"cat"`
		Ph   string            `json:"ph"`
		TS   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		PID  int               `json:"pid"`
		TID  string            `json:"tid"`
		Args map[string]string `json:"args,omitempty"`
	}
	t.mu.Lock()
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		events = append(events, event{
			Name: s.Name, Cat: "perfbench", Ph: "X",
			TS:  float64(s.Start.Sub(t.t0)) / 1e3,
			Dur: float64(s.dur()) / 1e3,
			PID: 1, TID: s.Name,
			Args: map[string]string{"id": s.ID, "parent": s.Parent},
		})
	}
	t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace export: %w", err)
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": events}); err != nil {
		f.Close()
		return fmt.Errorf("trace export: %w", err)
	}
	return f.Close()
}

// spanHandler wraps an http.Handler the benchmark mounts and records one
// span per request, keyed by the X-Request-ID the request carries. It also
// counts the bytes each request moved in both directions.
type spanHandler struct {
	name    string
	parent  func(id string) string
	h       http.Handler
	tr      *tracer
	mu      sync.Mutex
	reqB    int64
	respB   int64
	capture func(id string, status int, body []byte) // optional response capture
}

func (s *spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	tr := s.tr
	s.mu.Unlock()
	if tr == nil {
		s.h.ServeHTTP(w, r)
		return
	}
	cw := &countingWriter{ResponseWriter: w, status: http.StatusOK, keep: s.capture != nil}
	start := time.Now()
	s.h.ServeHTTP(cw, r)
	end := time.Now()
	id := r.Header.Get("X-Request-ID")
	parent := ""
	if s.parent != nil {
		parent = s.parent(id)
	}
	tr.record(s.name, id, parent, start, end)
	s.mu.Lock()
	s.reqB += r.ContentLength
	s.respB += cw.n
	s.mu.Unlock()
	if s.capture != nil {
		s.capture(id, cw.status, cw.buf)
	}
}

// setTracer switches the wrapper between phases.
func (s *spanHandler) setTracer(t *tracer) {
	s.mu.Lock()
	s.tr, s.reqB, s.respB = t, 0, 0
	s.mu.Unlock()
}

func (s *spanHandler) bytes() (req, resp int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reqB, s.respB
}

type countingWriter struct {
	http.ResponseWriter
	status int
	n      int64
	keep   bool
	buf    []byte
}

func (c *countingWriter) WriteHeader(code int) {
	c.status = code
	c.ResponseWriter.WriteHeader(code)
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	if c.keep {
		c.buf = append(c.buf, p...)
	}
	return c.ResponseWriter.Write(p)
}
