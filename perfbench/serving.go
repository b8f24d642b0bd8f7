package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"gcolor/internal/serve"
)

// gcolordConfig is serve.Config as gcolord builds it from its flag
// defaults (4 devices of 28 CUs, workgroup 256, wavefront 64, queue 256,
// shed at 0.75, cache 512).
func gcolordConfig() serve.Config {
	return serve.Config{
		Devices:       4,
		Device:        serve.DeviceConfig{NumCUs: 28, WorkgroupSize: 256, WavefrontWidth: 64},
		QueueCapacity: 256,
		ShedFraction:  0.75,
		CacheEntries:  512,
	}
}

// post calls an in-process handler the way an HTTP client would, with no
// socket in between, and returns the status and body.
func post(h http.Handler, target, contentType string, body []byte, rid string) (int, []byte) {
	req := httptest.NewRequest(http.MethodPost, target, bytes.NewReader(body))
	req.Header.Set("Content-Type", contentType)
	req.Header.Set("X-Request-ID", rid)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// decodeReply turns a /color reply into a ColorResponse, or an error
// naming the refusal kind for any non-200 status.
func decodeReply(status int, body []byte) (*serve.ColorResponse, error) {
	if status != http.StatusOK {
		var er struct{ Kind, Error string }
		_ = json.Unmarshal(body, &er)
		return nil, fmt.Errorf("http %d %s: %s", status, er.Kind, er.Error)
	}
	var cr serve.ColorResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		return nil, fmt.Errorf("decode reply: %w", err)
	}
	return &cr, nil
}

// replyAcc sums what the program reported about the replies of the traced
// phase: wait and exec times of executed jobs and their simulated cost.
type replyAcc struct {
	mu                 sync.Mutex
	byID               map[string]*serve.ColorResponse
	executed           int
	waitUS, execUS     int64
	cycles             float64
	iterations         int
	frontier, repaired int
	deltas             int
	shardConf, shardRc int
	scattered          int
}

func newReplyAcc() *replyAcc { return &replyAcc{byID: make(map[string]*serve.ColorResponse)} }

// add records one successful reply. A nil accumulator (untraced phase)
// records nothing.
func (a *replyAcc) add(rid string, r *serve.ColorResponse) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.byID[rid] = &serve.ColorResponse{WaitUS: r.WaitUS, ExecUS: r.ExecUS, Cached: r.Cached}
	if r.Delta && !r.DeltaFallback && !r.Cached {
		a.deltas++
		a.frontier += r.FrontierSize
		a.repaired += r.Repaired
	}
	if r.Scattered {
		a.scattered++
		a.shardConf += r.ShardConflicts
		a.shardRc += r.ShardRecolored
	}
	if r.Cached || r.Coalesced || (r.Delta && !r.DeltaFallback) {
		return // no queue, no device
	}
	a.executed++
	a.waitUS += r.WaitUS
	a.execUS += r.ExecUS
	a.iterations += r.Iterations
	c := float64(r.Cycles)
	if r.Batched && r.BatchSize > 0 {
		// Members of one launch each report the whole launch's cycles.
		c /= float64(r.BatchSize)
	}
	a.cycles += c
}

// serveLayer fills the serve and kernel metrics of a traced phase from the
// replies and the server's counters.
func (a *replyAcc) serveLayer(m map[string]float64, handler []span, before, after serve.Stats, busyNS, elapsed float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	var self []float64
	for _, s := range handler {
		r, ok := a.byID[s.ID]
		if !ok {
			continue
		}
		self = append(self, ms(s.dur()-time.Duration(r.WaitUS+r.ExecUS)*time.Microsecond))
	}
	var hs []float64
	for _, s := range handler {
		hs = append(hs, ms(s.dur()))
	}
	m["serve.handler_ms"] = mean(hs)
	m["serve.self_ms"] = mean(self)
	m["serve.queue_wait_ms"] = ratio(float64(a.waitUS)/1e3, float64(a.executed))
	m["serve.exec_ms"] = ratio(float64(a.execUS)/1e3, float64(a.executed))
	m["kernel.host_ms"] = m["serve.exec_ms"]
	m["kernel.sim_mcycles"] = a.cycles / 1e6
	m["kernel.host_ns_per_cycle"] = ratio(float64(a.execUS)*1e3, a.cycles)
	m["kernel.iterations"] = ratio(float64(a.iterations), float64(a.executed))

	d := func(f func(serve.Stats) int64) float64 { return float64(f(after) - f(before)) }
	hits, misses := d(func(s serve.Stats) int64 { return s.CacheHits }), d(func(s serve.Stats) int64 { return s.CacheMisses })
	reqs := d(func(s serve.Stats) int64 { return s.Requests })
	m["serve.cache_hit_ratio"] = ratio(hits, hits+misses)
	m["serve.coalesced_ratio"] = ratio(d(func(s serve.Stats) int64 { return s.Coalesced }), reqs)
	batchedJobs := d(func(s serve.Stats) int64 { return s.BatchedJobs })
	m["serve.batch_size"] = ratio(batchedJobs, d(func(s serve.Stats) int64 { return s.Batches }))
	m["serve.batched_share"] = ratio(batchedJobs, float64(a.executed))
	m["serve.device_util"] = ratio(busyNS, float64(after.Devices)*elapsed)
	m["serve.shed_ratio"] = ratio(d(func(s serve.Stats) int64 { return s.Shed }), reqs)
	m["serve.queue_full_ratio"] = ratio(d(func(s serve.Stats) int64 { return s.QueueFull }), reqs)
	deltaReqs := d(func(s serve.Stats) int64 { return s.DeltaRequests })
	m["serve.delta_hit_ratio"] = ratio(d(func(s serve.Stats) int64 { return s.DeltaHits }), deltaReqs)
	m["serve.versions_resident"] = float64(after.VersionsResident)
	m["graph.frontier_vertices"] = ratio(float64(a.frontier), float64(a.deltas))
	m["color.recolored_vertices"] = ratio(float64(a.repaired), float64(a.deltas))
}

// busyNS is the device time a server has leased since it started.
func busyNS(s *serve.Server) float64 {
	up := s.Uptime()
	return s.Pool().Utilization(up) * float64(s.Pool().Size()) * float64(up)
}
