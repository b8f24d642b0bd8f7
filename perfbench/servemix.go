package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gcolor/internal/graph"
	"gcolor/internal/serve"
)

// mixTraffic is serve-mix's offered load. At 120 requests/s with one in
// twenty a cache miss, the misses keep about a tenth of two cores busy, so
// the median is the hit path and the tail (p99, the slowest fifth of the
// misses) the miss path, without a growing backlog. With at most two
// client goroutines, two slow misses at once stall every request due
// behind them; more misses made that common enough to swing p99 by 2x
// between runs.
var mixTraffic = mixParams{rate: 120, coldEvery: 20, jsonShare: 0.20, limit: 250 * time.Millisecond}

const mixSeedsPerGraph = 4

type mixEnv struct {
	srv    *serve.Server
	h      *spanHandler
	graphs []mixGraph
	fps    []string
	hot    []pair
	want   map[pair][]int32 // the hot pairs' colorings from set-up
	cycles int64
	colors int
	record uint64
}

func (e *mixEnv) close() { e.srv.Stop() }

func (e *mixEnv) coldGraphs() []int {
	var idx []int
	for i, g := range e.graphs {
		if g.cold {
			idx = append(idx, i)
		}
	}
	return idx
}

// mixRequest renders one request: a binary CSR body with the options in
// the query string, or a JSON body carrying the edge-list text.
func mixRequest(g *mixGraph, p pair, asJSON bool) (target, contentType string, body []byte) {
	if !asJSON {
		return fmt.Sprintf("/color?alg=%s&seed=%d&include_colors=true", p.alg, p.seed), serve.ContentTypeBinaryCSR, g.csr
	}
	body, err := json.Marshal(&serve.ColorRequest{Graph: g.edgeText, Alg: p.alg, Seed: p.seed, IncludeColors: true})
	if err != nil {
		panic(err) // a ColorRequest always marshals
	}
	return "/color", "application/json", body
}

func buildMix(cfg runConfig) (*mixEnv, error) {
	e := &mixEnv{graphs: mixGraphs(cfg.seed, cfg.size), want: make(map[pair][]int32)}
	e.hot = hotPairs(cfg.seed, len(e.graphs), mixSeedsPerGraph)
	for _, g := range e.graphs {
		e.fps = append(e.fps, graph.FingerprintString(g.g.Fingerprint()))
	}
	e.srv = serve.NewServer(gcolordConfig())
	e.h = &spanHandler{name: "serve.handler", h: serve.Handler(e.srv)}
	// Warm the cache with every hot pair, one at a time, so each runs solo
	// and its simulated cost is the same in every run.
	var dgs []uint64
	for i, p := range e.hot {
		g := &e.graphs[p.graph]
		target, ct, body := mixRequest(g, p, false)
		r, err := decodeReply(post(e.h, target, ct, body, fmt.Sprintf("warm-%d", i)))
		if err == nil {
			err = checkReply(r, g.g, e.fps[p.graph], nil)
		}
		if err != nil {
			e.close()
			return nil, fmt.Errorf("warm %s seed %d: %w", g.name, p.seed, err)
		}
		e.want[p] = r.Colors
		e.cycles += r.Cycles
		e.colors += r.NumColors
		dgs = append(dgs, digest(r.Colors, r.Cycles, r.Iterations))
	}
	e.record = foldDigests(dgs)
	return e, nil
}

// checkReply checks a coloring reply against the benchmark's own graph:
// fingerprint, proper coloring, palette count, and equality with an
// earlier answer when want is set.
func checkReply(r *serve.ColorResponse, g *graph.Graph, fp string, want []int32) error {
	if r.Fingerprint != fp {
		return fmt.Errorf("fingerprint %s, want %s", r.Fingerprint, fp)
	}
	return checkColoring(g, r.Colors, want, r.NumColors)
}

func runServeMix(cfg runConfig) (*outcome, error) {
	env, setupS, err := setupMedian(func() (*mixEnv, error) { return buildMix(cfg) },
		(*mixEnv).close, func(e *mixEnv) string { return fmt.Sprintf("%016x", e.record) })
	if err != nil {
		return nil, err
	}
	defer env.close()
	clients := runtime.GOMAXPROCS(0)
	coldBase := uint32(1_000_000)
	var late [2][]float64
	var acc *replyAcc
	var before serve.Stats
	var busy0 float64
	var ops []mixOp
	measure := func(idx int, tr *tracer, d time.Duration) (phase, error) {
		ops = mixSchedule(cfg.seed, idx, d, mixTraffic, env.hot, env.coldGraphs(), coldBase)
		coldBase += uint32(len(ops))
		type prepared struct {
			target, ct string
			body       []byte
		}
		reqs := make([]prepared, len(ops))
		for i, op := range ops {
			t, ct, b := mixRequest(&env.graphs[op.p.graph], op.p, op.json)
			reqs[i] = prepared{t, ct, b}
		}
		if tr != nil {
			acc = newReplyAcc()
			before, busy0 = env.srv.Stats(), busyNS(env.srv)
		}
		env.h.setTracer(tr)
		log := newOpLog(mixTraffic.limit)
		var lateMu sync.Mutex
		var next atomic.Int64
		var wg sync.WaitGroup
		mem := readMem()
		start := time.Now()
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1) - 1)
					if i >= len(ops) {
						return
					}
					op := ops[i]
					due := start.Add(op.due)
					waitUntil(due)
					lateMu.Lock()
					late[idx] = append(late[idx], ms(time.Since(due)))
					lateMu.Unlock()
					rid := fmt.Sprintf("mix-%d-%d", idx, i)
					rq := reqs[i]
					r, err := decodeReply(post(env.h, rq.target, rq.ct, rq.body, rid))
					if err != nil {
						log.fail(false, err.Error())
						continue
					}
					v0 := time.Now()
					g := &env.graphs[op.p.graph]
					cerr := checkReply(r, g.g, env.fps[op.p.graph], env.want[op.p])
					tr.record("color.verify", rid, "", v0, time.Now())
					if cerr != nil {
						log.fail(true, fmt.Sprintf("%s seed %d: %v", g.name, op.p.seed, cerr))
						continue
					}
					acc.add(rid, r)
					log.ok(time.Since(due))
				}
			}()
		}
		wg.Wait()
		return summarize(log, mem, nil, nil), nil
	}
	untraced, traced, tr, err := runPhases(cfg, measure)
	if err != nil {
		return nil, err
	}
	lateP99, _ := tailPercentile(late[0], 0.99)
	params := map[string]any{
		"graphs":        describe(mixDatasets(env.graphs)),
		"hot_pairs":     fmt.Sprintf("%d (%d seeds per graph), warmed in set-up", len(env.hot), mixSeedsPerGraph),
		"offered_rate":  fmt.Sprintf("%g req/s Poisson, open loop", mixTraffic.rate),
		"cold_every":    mixTraffic.coldEvery,
		"json_share":    mixTraffic.jsonShare,
		"latency_limit": mixTraffic.limit.String(),
		"clients":       clients,
		"server":        "serve.NewServer with gcolord defaults behind serve.Handler, in process",
		"determinism":   fmt.Sprintf("sim_mcycles %.6f colors %d record %016x", float64(env.cycles)/1e6, env.colors, env.record),
		"gen_late_p99":  fmt.Sprintf("%.3f ms", lateP99),
	}
	var metrics map[string]float64
	if !cfg.trace {
		metrics = endToEndMetrics(setupS, untraced, float64(env.cycles)/1e6, env.colors)
	} else {
		metrics = layerMetrics(untraced, traced, lateP99)
		allocMetrics(metrics, traced)
		acc.serveLayer(metrics, tr.byName("serve.handler"), before, env.srv.Stats(), busyNS(env.srv)-busy0, float64(traced.elapsed))
		metrics["color.verify_ms"] = tr.meanMS("color.verify")
		metrics["graph.decode_ms"], metrics["graph.fingerprint_ms"] = replayDecode(env.graphs, ops)
		if err := tr.export(cfg.traceOut); err != nil {
			return nil, err
		}
	}
	return finish(untraced, traced, metrics, params, nil), nil
}

// replayDecode times direct calls into the graph layer on the traced
// phase's own request bodies (up to 200 of them): decoding the binary CSR
// frame or parsing the JSON edge-list body, then fingerprinting the graph.
func replayDecode(graphs []mixGraph, ops []mixOp) (decodeMS, fingerprintMS float64) {
	if len(ops) > 200 {
		ops = ops[:200]
	}
	var dec, fp []float64
	for _, op := range ops {
		_, _, body := mixRequest(&graphs[op.p.graph], op.p, op.json)
		t0 := time.Now()
		var g *graph.Graph
		var err error
		if op.json {
			var cr serve.ColorRequest
			if err = json.Unmarshal(body, &cr); err == nil {
				g, err = graph.ReadEdgeList(strings.NewReader(cr.Graph))
			}
		} else {
			g, _, err = graph.DecodeWireCSR(body)
		}
		if err != nil {
			continue
		}
		dec = append(dec, ms(time.Since(t0)))
		t0 = time.Now()
		_ = g.Fingerprint()
		fp = append(fp, ms(time.Since(t0)))
	}
	return mean(dec), mean(fp)
}

// spinWindow is how long before a request is due the generator stops
// sleeping and starts yielding in a loop. time.Sleep on an idle core woke
// a uniform 0-1 ms late on a 2-vCPU VM, which made a fifth of the hit
// path's latency from due the host's wake-up delay; the spin brings the
// median lateness under 10 µs.
const spinWindow = time.Millisecond

// waitUntil returns at due: it sleeps until spinWindow before it and
// yields the rest of the way.
func waitUntil(due time.Time) {
	if d := time.Until(due) - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(due) {
		runtime.Gosched()
	}
}

func mixDatasets(gs []mixGraph) []dataset {
	ds := make([]dataset, len(gs))
	for i, g := range gs {
		ds[i] = g.dataset
	}
	return ds
}
