package main

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"gcolor/internal/color"
	"gcolor/internal/graph"
	"gcolor/internal/journal"
	"gcolor/internal/serve"
)

// deltaClients is the closed loop's client count, each with its own
// resident chain. Two clients saturated a 2-vCPU host, so any core a
// neighbour took became queueing: an in-guest busy loop cut ops_per_s by
// 36% and raised p99_ms by 64% at two clients, against 5% and 5% at one.
const deltaClients = 1

// deltaTraffic is delta-stream's mix. Small deltas touch 0.2% of the
// edges, so their frontier stays far below the server's 0.2 budget; every
// forty-eighth delta touches 3%, whose frontier exceeds it and forces the
// full-recolor fallback. Fallbacks take more than half the time, and
// enough of them land in a run (fifteen to twenty) that p99 is their
// latency. Every fourth operation re-reads a recent version. The pattern
// is fixed rather than drawn, so every run does the same mix of cheap and
// expensive operations.
var deltaTraffic = deltaParams{
	readEvery:  4,
	bigEvery:   48,
	smallFrac:  0.002,
	bigFrac:    0.03,
	budget:     0.2,
	limit:      time.Second,
	warmDeltas: 3,
}

// version is one link of a resident chain as the client knows it.
type version struct {
	g      *graph.Graph
	fp     uint64
	colors []int32
}

// deltaClient owns one resident chain and the random stream that scripts
// it. Reads never touch the chain, so the chain is fixed by the seed
// whatever the timing.
type deltaClient struct {
	id     int
	seed   uint32
	rng    *rand.Rand
	ops    int // operations run
	deltas int // deltas sent
	cur    version
	recent []version // newest last, at most 4
}

// deltaSample keeps one frontier delta for the traced replay of the color
// layer.
type deltaSample struct {
	g        *graph.Graph
	base     []int32
	frontier []int32
}

type deltaEnv struct {
	dir     string
	jr      *journal.Journal
	srv     *serve.Server
	h       *spanHandler
	clients []*deltaClient
	cycles  int64
	colors  int
	record  uint64
}

func (e *deltaEnv) close() {
	e.srv.Stop()
	_ = e.jr.Close() // the journal is scratch; it is deleted next
	_ = os.RemoveAll(e.dir)
}

// opResult is what one client operation did, for the layer metrics.
type opResult struct {
	read      bool
	applyDur  time.Duration
	verifyDur time.Duration
	sample    *deltaSample
	reply     *serve.ColorResponse
}

func (c *deltaClient) query() string {
	return fmt.Sprintf("/color?alg=hybrid&seed=%d&include_colors=true", c.seed)
}

// step runs the client's next operation: a re-read of a recent version or
// a delta on the chain head. It returns the time spent in the handler.
func (c *deltaClient) step(h *spanHandler, p deltaParams, rid string, keepSample bool) (time.Duration, opResult, error) {
	var res opResult
	c.ops++
	if p.readEvery > 0 && c.ops%p.readEvery == 0 && len(c.recent) > 0 {
		v := c.recent[c.rng.Intn(len(c.recent))]
		res.read = true
		t0 := time.Now()
		r, err := decodeReply(post(h, c.query(), serve.ContentTypeBinaryCSR, graph.EncodeWireCSR(v.g), rid))
		lat := time.Since(t0)
		if err != nil {
			return lat, res, err
		}
		v0 := time.Now()
		err = checkReply(r, v.g, graph.FingerprintString(v.fp), v.colors)
		res.verifyDur = time.Since(v0)
		if err != nil {
			return lat, res, &checkError{fmt.Sprintf("re-read %s: %v", graph.FingerprintString(v.fp), err)}
		}
		res.reply = r
		return lat, res, nil
	}
	c.deltas++
	frac := p.smallFrac
	if c.deltas%p.bigEvery == 0 {
		frac = p.bigFrac
	}
	d := nextDelta(c.rng, c.cur.g, frac)
	a0 := time.Now()
	ng, fp, frontier, err := graph.ApplyDelta(c.cur.g, d)
	res.applyDur = time.Since(a0)
	if err != nil {
		return 0, res, fmt.Errorf("benchmark delta: %w", err) // a benchmark bug, not the program's
	}
	t0 := time.Now()
	r, err := decodeReply(post(h, c.query()+"&resident=true", serve.ContentTypeBinaryCSR, graph.EncodeWireDelta(c.cur.fp, d), rid))
	lat := time.Since(t0)
	if err != nil {
		return lat, res, err
	}
	wantFallback := len(frontier) > int(p.budget*float64(ng.NumVertices()))
	v0 := time.Now()
	cerr := checkReply(r, ng, graph.FingerprintString(fp), nil)
	res.verifyDur = time.Since(v0)
	if cerr == nil && !r.Cached && (!r.Delta || r.DeltaFallback != wantFallback) {
		cerr = fmt.Errorf("delta=%v fallback=%v, want fallback=%v for a %d-vertex frontier", r.Delta, r.DeltaFallback, wantFallback, len(frontier))
	}
	if cerr != nil {
		return lat, res, &checkError{fmt.Sprintf("delta on %s: %v", graph.FingerprintString(c.cur.fp), cerr)}
	}
	if keepSample && !wantFallback {
		base := make([]int32, ng.NumVertices())
		copy(base, c.cur.colors)
		res.sample = &deltaSample{ng, base, frontier}
	}
	res.reply = r
	c.cur = version{ng, fp, r.Colors}
	c.recent = append(c.recent, c.cur)
	if len(c.recent) > 4 {
		c.recent = c.recent[1:]
	}
	return lat, res, nil
}

func buildDelta(cfg runConfig) (*deltaEnv, error) {
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workDir, "journal-")
	if err != nil {
		return nil, err
	}
	jr, rec, err := journal.Open(dir, journal.Options{Fsync: journal.FsyncBatch})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	sc := gcolordConfig()
	sc.Journal, sc.Recovery = jr, rec
	e := &deltaEnv{dir: dir, jr: jr, srv: serve.NewServer(sc)}
	e.h = &spanHandler{name: "serve.handler", h: serve.Handler(e.srv)}
	var dgs []uint64
	fail := func(err error) (*deltaEnv, error) {
		e.close()
		return nil, err
	}
	for i := 0; i < deltaClients; i++ {
		r := rngFor(cfg.seed, fmt.Sprintf("delta/client/%d", i))
		// Fixed priority seeds too: a full recolor's cost moves several
		// percent with the priority draw, and fallbacks dominate the time.
		c := &deltaClient{id: i, seed: uint32(i + 1), rng: r}
		g := deltaBase(i, cfg.size)
		fp := g.Fingerprint()
		reply, err := decodeReply(post(e.h, c.query()+"&resident=true", serve.ContentTypeBinaryCSR, graph.EncodeWireCSR(g), fmt.Sprintf("base-%d", i)))
		if err == nil {
			err = checkReply(reply, g, graph.FingerprintString(fp), nil)
		}
		if err != nil {
			return fail(fmt.Errorf("upload base %d: %w", i, err))
		}
		c.cur = version{g, fp, reply.Colors}
		e.cycles += reply.Cycles
		e.colors += reply.NumColors
		dgs = append(dgs, digest(reply.Colors, reply.Cycles, reply.Iterations))
		// The first deltas of each chain run here, one at a time, so the
		// quality set (colors, simulated cycles) is the same every run.
		warm := deltaTraffic
		warm.readEvery = 0
		for k := 0; k < warm.warmDeltas; k++ {
			head := c.cur.fp
			if _, _, err := c.step(e.h, warm, fmt.Sprintf("warm-%d-%d", i, k), false); err != nil {
				return fail(fmt.Errorf("warm delta %d/%d: %w", i, k, err))
			}
			if c.cur.fp == head {
				return fail(fmt.Errorf("warm delta %d/%d did not advance the chain", i, k))
			}
			e.colors += color.NumColors(c.cur.colors)
			dgs = append(dgs, digest(c.cur.colors, 0, 0))
		}
		e.clients = append(e.clients, c)
	}
	e.record = foldDigests(dgs)
	return e, nil
}

func runDeltaStream(cfg runConfig) (*outcome, error) {
	env, setupS, err := setupMedian(func() (*deltaEnv, error) { return buildDelta(cfg) },
		(*deltaEnv).close, func(e *deltaEnv) string { return fmt.Sprintf("%016x", e.record) })
	if err != nil {
		return nil, err
	}
	defer env.close()
	var acc *replyAcc
	var before serve.Stats
	var jBefore journal.Stats
	var busy0 float64
	var samples []*deltaSample
	var applyMS, verifyMS []float64
	var mu sync.Mutex
	measure := func(idx int, tr *tracer, d time.Duration) (phase, error) {
		if tr != nil {
			acc = newReplyAcc()
			before, jBefore, busy0 = env.srv.Stats(), env.jr.Stats(), busyNS(env.srv)
		}
		env.h.setTracer(tr)
		log := newOpLog(deltaTraffic.limit)
		var wg sync.WaitGroup
		mem := readMem()
		start := time.Now()
		for _, c := range env.clients {
			wg.Add(1)
			go func(c *deltaClient) {
				defer wg.Done()
				for k := 0; time.Since(start) < d; k++ {
					rid := fmt.Sprintf("delta-%d-%d-%d", idx, c.id, k)
					mu.Lock()
					keep := tr != nil && len(samples) < 30
					mu.Unlock()
					lat, res, err := c.step(env.h, deltaTraffic, rid, keep)
					if err != nil {
						_, isCheck := err.(*checkError)
						log.fail(isCheck, err.Error())
						continue
					}
					acc.add(rid, res.reply)
					if tr != nil {
						mu.Lock()
						if !res.read {
							applyMS = append(applyMS, ms(res.applyDur))
						}
						verifyMS = append(verifyMS, ms(res.verifyDur))
						if res.sample != nil {
							samples = append(samples, res.sample)
						}
						mu.Unlock()
					}
					log.ok(lat)
				}
			}(c)
		}
		wg.Wait()
		return summarize(log, mem, nil, nil), nil
	}
	untraced, traced, tr, err := runPhases(cfg, measure)
	if err != nil {
		return nil, err
	}
	params := map[string]any{
		"clients":       len(env.clients),
		"base":          fmt.Sprintf("rmat:%d:16:<client+1>, n=%d", map[size]int{full: 12, tiny: 7}[cfg.size], env.clients[0].cur.g.NumVertices()),
		"pattern":       fmt.Sprintf("every %dth op a re-read, every %dth delta big; algorithm hybrid", deltaTraffic.readEvery, deltaTraffic.bigEvery),
		"delta_sizes":   fmt.Sprintf("small %.1f%% of edges, big %.1f%% (frontier budget %.1f)", 100*deltaTraffic.smallFrac, 100*deltaTraffic.bigFrac, deltaTraffic.budget),
		"latency_limit": deltaTraffic.limit.String(),
		"journal":       "journal.Open, batch fsync, scratch directory",
		"determinism":   fmt.Sprintf("sim_mcycles %.6f colors %d record %016x", float64(env.cycles)/1e6, env.colors, env.record),
	}
	var metrics map[string]float64
	if !cfg.trace {
		metrics = endToEndMetrics(setupS, untraced, float64(env.cycles)/1e6, env.colors)
	} else {
		metrics = layerMetrics(untraced, traced, 0)
		allocMetrics(metrics, traced)
		metrics["graph.apply_delta_ms"] = mean(applyMS)
		metrics["color.verify_ms"] = mean(verifyMS)
		var heads []*graph.Graph
		for _, c := range env.clients {
			heads = append(heads, c.cur.g)
		}
		metrics["graph.decode_ms"], metrics["graph.fingerprint_ms"] = decodeTimes(heads)
		metrics["color.recolor_frontier_ms"] = replayRecolor(samples)
		acc.serveLayer(metrics, tr.byName("serve.handler"), before, env.srv.Stats(), busyNS(env.srv)-busy0, float64(traced.elapsed))
		jAfter := env.jr.Stats()
		ops := float64(traced.attempted)
		metrics["journal.appends_per_op"] = ratio(float64(jAfter.Appends-jBefore.Appends), ops)
		metrics["journal.bytes_per_op"] = ratio(float64(jAfter.AppendBytes-jBefore.AppendBytes), ops)
		metrics["journal.fsyncs_per_s"] = ratio(float64(jAfter.Fsyncs-jBefore.Fsyncs), traced.elapsed.Seconds())
		if err := tr.export(cfg.traceOut); err != nil {
			return nil, err
		}
	}
	return finish(untraced, traced, metrics, params, nil), nil
}

// replayRecolor times direct calls to color.RecolorFrontier on frontier
// deltas the traced phase sent, from the base coloring the client held.
func replayRecolor(samples []*deltaSample) float64 {
	var sc color.Scratch
	var xs []float64
	for _, s := range samples {
		colors := append([]int32(nil), s.base...)
		t0 := time.Now()
		color.RecolorFrontier(s.g, colors, s.frontier, &sc)
		xs = append(xs, ms(time.Since(t0)))
	}
	return mean(xs)
}
