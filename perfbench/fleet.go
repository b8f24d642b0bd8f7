package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"gcolor/internal/cluster"
	"gcolor/internal/graph"
	"gcolor/internal/serve"
	"gcolor/internal/shard"
)

// Fleet request classes. A scatter request names a big graph with caching
// off, so the coordinator partitions it and merges the workers' shards
// every time; a route request names a small graph with caching off, so
// it is forwarded whole; a hit request repeats a small graph the
// coordinator has cached.
const (
	classScatter = iota
	classRoute
	classHit
)

// fleetShares are the class probabilities of one request. Scatters are
// the bulk, so the median falls inside their latencies rather than on the
// boundary between two classes.
var fleetShares = [3]float64{0.7, 0.2, 0.1}

// bigVariants is how many copies of each big graph the pool holds, each
// with one more isolated vertex than the last. The coordinator places a
// shard by a rendezvous hash of the graph's fingerprint, so whether both
// shards of a job share a worker is luck of the draw per graph; copies
// with their own fingerprints but the same work average that luck out.
const bigVariants = 3

// fleetClients is the closed loop's client count. One client keeps the
// fleet at about one core's load while a scatter's two shards still run
// side by side on the two workers. Two clients saturated a 2-vCPU host,
// so any core a neighbour took became queueing: an in-guest busy loop cut
// ops_per_s by 26-35% and raised p99_ms by 39-60% at two clients, against
// 12-13% and 17-19% at one.
const fleetClients = 1

// fleetLimit is the fleet-scatter latency limit for goodput.
const fleetLimit = time.Second

// fleetItem is one request identity of the fleet pool.
type fleetItem struct {
	big     bool
	ds      int
	variant int // big graphs: which copy (0 is the generated graph)
	seed    uint32
	alg     string
	class   int
}

type fleetWorker struct {
	srv *serve.Server
	hs  *http.Server
	h   *spanHandler
	url string
}

type fleetEnv struct {
	workers   []*fleetWorker
	coord     *cluster.Coordinator
	coordHS   *http.Server
	coordH    *spanHandler
	url       string
	transport *http.Transport
	client    *http.Client

	big, small []dataset
	bigCopies  [][]*graph.Graph // [i][v]: big graph i with v isolated vertices added
	edgeText   map[*graph.Graph]string
	fps        map[*graph.Graph]string
	pool       [3][]fleetItem
	bodies     map[fleetItem][]byte
	want       map[fleetItem][]int32

	captureMu sync.Mutex
	captured  map[string][]byte // traced worker replies by X-Request-ID
	capturing bool

	cycles int64
	colors int
	record uint64
	dgs    []uint64
}

func (e *fleetEnv) graphOf(it fleetItem) *graph.Graph {
	if it.big {
		return e.bigCopies[it.ds][it.variant]
	}
	return e.small[it.ds].g
}

// fleetPorts are the loopback ports the workers listen on when free. The
// coordinator places shards by hashing worker addresses, so ports drawn
// afresh each run would reshuffle which jobs have both shards on one
// worker, and with them the run's speed.
var fleetPorts = []int{38431, 38432}

// serveOn starts an http.Server for h on a loopback port: port when it is
// free, any port otherwise.
func serveOn(h http.Handler, port int) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", port))
	if err != nil {
		ln, err = net.Listen("tcp", "127.0.0.1:0")
	}
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: h}
	go func() { _ = hs.Serve(ln) }() // Serve returns when close shuts it
	return hs, "http://" + ln.Addr().String(), nil
}

func (e *fleetEnv) close() {
	if e.transport != nil {
		e.transport.CloseIdleConnections()
	}
	if e.coordHS != nil {
		_ = e.coordHS.Close()
	}
	if e.coord != nil {
		e.coord.Close()
	}
	for _, w := range e.workers {
		_ = w.hs.Close()
		w.srv.Stop()
	}
}

// shardParent maps a worker-side request ID to the coordinator request
// that caused it: shard sub-requests carry the coordinator's ID plus
// "-s<index>", routed requests carry it unchanged.
func shardParent(id string) string {
	if i := strings.LastIndex(id, "-s"); i >= 0 {
		if _, err := strconv.Atoi(id[i+2:]); err == nil {
			return id[:i]
		}
	}
	return id
}

func buildFleet(cfg runConfig) (*fleetEnv, error) {
	e := &fleetEnv{
		edgeText: make(map[*graph.Graph]string), fps: make(map[*graph.Graph]string),
		bodies: make(map[fleetItem][]byte), want: make(map[fleetItem][]int32),
		captured: make(map[string][]byte),
	}
	e.big, e.small = fleetGraphs(cfg.seed, cfg.size)
	variants := bigVariants
	if cfg.size == tiny {
		variants = 1
	}
	all := []*graph.Graph{}
	for _, d := range e.big {
		copies := []*graph.Graph{d.g}
		for v := 1; v < variants; v++ {
			g, _, _, err := graph.ApplyDelta(d.g, &graph.Delta{AddVertices: v})
			if err != nil {
				return nil, err
			}
			copies = append(copies, g)
		}
		e.bigCopies = append(e.bigCopies, copies)
		all = append(all, copies...)
	}
	for _, d := range e.small {
		all = append(all, d.g)
	}
	for _, g := range all {
		var b bytes.Buffer
		if err := graph.WriteEdgeList(&b, g); err != nil {
			return nil, err
		}
		e.edgeText[g] = b.String()
		e.fps[g] = graph.FingerprintString(g.Fingerprint())
	}
	fail := func(err error) (*fleetEnv, error) {
		e.close()
		return nil, err
	}
	var peers []string
	for i := 0; i < 2; i++ {
		wc := gcolordConfig()
		wc.Devices = 1
		srv := serve.NewServer(wc)
		w := &fleetWorker{srv: srv}
		w.h = &spanHandler{name: "cluster.worker", parent: shardParent, h: serve.Handler(srv), capture: e.capture}
		hs, url, err := serveOn(w.h, fleetPorts[i])
		if err != nil {
			srv.Stop()
			return fail(err)
		}
		w.hs, w.url = hs, url
		e.workers = append(e.workers, w)
		peers = append(peers, url)
	}
	e.coord = cluster.NewCoordinator(cluster.Config{Peers: peers})
	e.coordH = &spanHandler{name: "cluster.coord", h: cluster.Handler(e.coord)}
	hs, url, err := serveOn(e.coordH, 0)
	if err != nil {
		return fail(err)
	}
	e.coordHS, e.url = hs, url
	e.transport = &http.Transport{MaxConnsPerHost: fleetClients, MaxIdleConnsPerHost: fleetClients}
	e.client = &http.Client{Transport: e.transport, Timeout: time.Minute}
	for deadline := time.Now().Add(10 * time.Second); e.coord.Stats().AliveWorkers < 2; {
		if time.Now().After(deadline) {
			return fail(fmt.Errorf("coordinator saw %d of 2 workers alive", e.coord.Stats().AliveWorkers))
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The pool: every copy of every big graph under one seed (scatter),
	// every small graph under two seeds, each asked both uncached (route)
	// and cached (hit).
	r := rngFor(cfg.seed, "fleet/pool")
	for i, copies := range e.bigCopies {
		seed := prioSeed(r)
		for v := range copies {
			e.pool[classScatter] = append(e.pool[classScatter], fleetItem{true, i, v, seed, "hybrid", classScatter})
		}
	}
	for i := range e.small {
		for j := 0; j < 2; j++ {
			it := fleetItem{false, i, 0, prioSeed(r), []string{"baseline", "hybrid"}[(i+j)%2], classRoute}
			e.pool[classRoute] = append(e.pool[classRoute], it)
			it.class = classHit
			e.pool[classHit] = append(e.pool[classHit], it)
		}
	}
	for _, items := range e.pool {
		for _, it := range items {
			body, err := json.Marshal(&serve.ColorRequest{
				Graph: e.edgeText[e.graphOf(it)], Alg: it.alg, Seed: it.seed,
				NoCache: it.class != classHit, IncludeColors: true,
			})
			if err != nil {
				return fail(err)
			}
			e.bodies[it] = body
		}
	}
	// Warm: each generated big graph and each hit item once, one at a
	// time, so every coloring of the quality set runs solo; hit items fill
	// the cache. Big-graph copies are checked against their own graph.
	var dgs []uint64
	for _, class := range []int{classScatter, classHit} {
		for k, it := range e.pool[class] {
			if it.variant > 0 {
				continue
			}
			r, err := e.call(it, fmt.Sprintf("warm-%d-%d", class, k))
			if err == nil {
				err = checkReply(r, e.graphOf(it), e.fps[e.graphOf(it)], nil)
			}
			if err == nil && it.big && !r.Scattered {
				err = fmt.Errorf("a %d-vertex graph was not scattered", e.graphOf(it).NumVertices())
			}
			if err != nil {
				return fail(fmt.Errorf("warm: %w", err))
			}
			e.want[it] = r.Colors
			if it.class == classHit {
				route := it
				route.class = classRoute
				e.want[route] = r.Colors
			}
			e.cycles += r.Cycles
			e.colors += r.NumColors
			// Colors only: a scattered job's reported cycles depend on
			// whether both shards landed on one worker and ran as one
			// batched launch, which the loopback ports decide.
			dgs = append(dgs, digest(r.Colors, 0, 0))
		}
	}
	e.record, e.dgs = foldDigests(dgs), dgs
	return e, nil
}

// capture keeps the traced phase's worker replies, parsed after the phase
// for the serve-layer metrics and the merge replay.
func (e *fleetEnv) capture(id string, status int, body []byte) {
	if status != http.StatusOK {
		return
	}
	e.captureMu.Lock()
	if e.capturing {
		e.captured[id] = body
	}
	e.captureMu.Unlock()
}

// workerStats sums the workers' serving counters.
func (e *fleetEnv) workerStats() serve.Stats {
	var sum serve.Stats
	for _, w := range e.workers {
		st := w.srv.Stats()
		sum.Requests += st.Requests
		sum.CacheHits += st.CacheHits
		sum.CacheMisses += st.CacheMisses
		sum.Coalesced += st.Coalesced
		sum.Batches += st.Batches
		sum.BatchedJobs += st.BatchedJobs
		sum.Shed += st.Shed
		sum.QueueFull += st.QueueFull
		sum.Devices += st.Devices
	}
	return sum
}

func (e *fleetEnv) workerBusyNS() float64 {
	var busy float64
	for _, w := range e.workers {
		busy += busyNS(w.srv)
	}
	return busy
}

// call posts one pool item to the coordinator.
func (e *fleetEnv) call(it fleetItem, rid string) (*serve.ColorResponse, error) {
	req, err := http.NewRequest(http.MethodPost, e.url+"/color", bytes.NewReader(e.bodies[it]))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", rid)
	resp, err := e.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return decodeReply(resp.StatusCode, body)
}

// scatterRecord is a traced scatter reply kept for the merge replay.
type scatterRecord struct {
	rid    string
	it     fleetItem
	colors []int32
}

func runFleetScatter(cfg runConfig) (*outcome, error) {
	env, setupS, err := setupMedian(func() (*fleetEnv, error) { return buildFleet(cfg) },
		(*fleetEnv).close, func(e *fleetEnv) string { return fmt.Sprintf("%x", e.dgs) })
	if err != nil {
		return nil, err
	}
	defer env.close()
	var acc *replyAcc
	var before cluster.Stats
	var wBefore serve.Stats
	var wBusy0 float64
	var scatters []scatterRecord
	var routedBig int
	var mu sync.Mutex
	measure := func(idx int, tr *tracer, d time.Duration) (phase, error) {
		if tr != nil {
			acc = newReplyAcc()
			before, wBefore, wBusy0 = env.coord.Stats(), env.workerStats(), env.workerBusyNS()
		}
		env.coordH.setTracer(tr)
		for _, w := range env.workers {
			w.h.setTracer(tr)
		}
		env.captureMu.Lock()
		env.capturing = tr != nil
		env.captureMu.Unlock()
		log := newOpLog(fleetLimit)
		var wg sync.WaitGroup
		mem := readMem()
		start := time.Now()
		for c := 0; c < fleetClients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				r := rngFor(cfg.seed, fmt.Sprintf("fleet/client/%d/%d", idx, c))
				for k := 0; time.Since(start) < d; k++ {
					it := pickItem(r, env.pool)
					rid := fmt.Sprintf("fleet-%d-%d-%d", idx, c, k)
					t0 := time.Now()
					reply, err := env.call(it, rid)
					lat := time.Since(t0)
					if err != nil {
						log.fail(false, err.Error())
						continue
					}
					g := env.graphOf(it)
					want := env.want[it]
					if it.big && !reply.Scattered {
						// Routed whole after all (a worker looked down): a
						// different but still checkable coloring.
						want = nil
						mu.Lock()
						routedBig++
						mu.Unlock()
					}
					v0 := time.Now()
					cerr := checkReply(reply, g, env.fps[g], want)
					tr.record("color.verify", rid, "", v0, time.Now())
					if cerr != nil {
						log.fail(true, fmt.Sprintf("%s item %+v: %v", rid, it, cerr))
						continue
					}
					acc.add(rid, reply)
					if tr != nil && reply.Scattered {
						mu.Lock()
						if len(scatters) < 20 {
							scatters = append(scatters, scatterRecord{rid, it, reply.Colors})
						}
						mu.Unlock()
					}
					log.ok(lat)
				}
			}(c)
		}
		wg.Wait()
		// Five-second windows: whether both shards of a job share a worker
		// comes in streaks, and a median over windows steadies the rates.
		var cuts []time.Duration
		for t := 5 * time.Second; t < d; t += 5 * time.Second {
			cuts = append(cuts, t)
		}
		return summarize(log, mem, append(cuts, d), nil), nil
	}
	untraced, traced, tr, err := runPhases(cfg, measure)
	if err != nil {
		return nil, err
	}
	params := map[string]any{
		"clients":           fleetClients,
		"fleet":             fmt.Sprintf("cluster.Coordinator (defaults) + 2 single-device serve workers at %s and %s, loopback HTTP, one process", env.workers[0].url, env.workers[1].url),
		"big_graphs":        fmt.Sprintf("%s; %d copies each", describe(env.big), len(env.bigCopies[0])),
		"small_graphs":      describe(env.small),
		"class_shares":      fmt.Sprintf("scatter %.2f, route %.2f, hit %.2f", fleetShares[0], fleetShares[1], fleetShares[2]),
		"latency_limit":     fleetLimit.String(),
		"big_not_scattered": routedBig,
		"determinism":       fmt.Sprintf("sim_mcycles %.6f colors %d record %016x", float64(env.cycles)/1e6, env.colors, env.record),
	}
	var extra []string
	var metrics map[string]float64
	if !cfg.trace {
		metrics = endToEndMetrics(setupS, untraced, float64(env.cycles)/1e6, env.colors)
	} else {
		metrics = layerMetrics(untraced, traced, 0)
		allocMetrics(metrics, traced)
		after := env.coord.Stats()
		coord := tr.byName("cluster.coord")
		workers := tr.byName("cluster.worker")
		children := make(map[string][]span)
		for _, w := range workers {
			children[w.Parent] = append(children[w.Parent], w)
		}
		var self []float64
		for _, c := range coord {
			self = append(self, ms(selfTime(c, children[c.ID])))
		}
		metrics["cluster.coord_self_ms"] = mean(self)
		metrics["cluster.worker_ms"] = tr.meanMS("cluster.worker")
		var wire int64
		for _, w := range env.workers {
			req, resp := w.h.bytes()
			wire += req + resp
		}
		metrics["cluster.wire_bytes_per_op"] = ratio(float64(wire), float64(traced.attempted))
		metrics["cluster.scattered_share"] = ratio(float64(after.Scattered-before.Scattered), float64(after.Jobs-before.Jobs))
		hits, misses := after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses
		metrics["cluster.cache_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
		metrics["cluster.redispatches"] = float64(after.Redispatches - before.Redispatches)
		acc.mu.Lock()
		metrics["shard.conflicts"] = ratio(float64(acc.shardConf), float64(acc.scattered))
		metrics["shard.recolored"] = ratio(float64(acc.shardRc), float64(acc.scattered))
		acc.mu.Unlock()
		// The serve layer runs inside the workers: its metrics come from
		// the worker replies and the workers' summed counters.
		env.captureMu.Lock()
		wacc := newReplyAcc()
		for id, body := range env.captured {
			var r serve.ColorResponse
			if json.Unmarshal(body, &r) == nil {
				wacc.add(id, &r)
			}
		}
		env.captureMu.Unlock()
		wacc.serveLayer(metrics, workers, wBefore, env.workerStats(), env.workerBusyNS()-wBusy0, float64(traced.elapsed))
		metrics["serve.delta_hit_ratio"], metrics["serve.versions_resident"] = 0, 0
		metrics["color.verify_ms"] = tr.meanMS("color.verify")
		part, merge, errs := env.replayMerge(scatters)
		extra = append(extra, errs...)
		metrics["shard.partition_ms"], metrics["shard.merge_repair_ms"] = part, merge
		metrics["graph.decode_ms"], metrics["graph.fingerprint_ms"] = env.replayDecode()
		if err := tr.export(cfg.traceOut); err != nil {
			return nil, err
		}
	}
	return finish(untraced, traced, metrics, params, extra), nil
}

func pickItem(r *rand.Rand, pool [3][]fleetItem) fleetItem {
	x := r.Float64()
	class := 0
	for class < 2 && x >= fleetShares[class] {
		x -= fleetShares[class]
		class++
	}
	return pool[class][r.Intn(len(pool[class]))]
}

// replayMerge times direct calls to shard.Partition and shard.MergeRepair
// on scattered requests of the traced phase, from the shard colorings the
// workers actually returned, and checks that the replayed merge equals
// the coloring the coordinator answered with.
func (e *fleetEnv) replayMerge(recs []scatterRecord) (partMS, mergeMS float64, errs []string) {
	e.captureMu.Lock()
	captured := e.captured
	e.captureMu.Unlock()
	var ps, ms2 []float64
	for _, rec := range recs {
		g := e.graphOf(rec.it)
		t0 := time.Now()
		plan, err := shard.Partition(g, len(e.workers), true)
		pd := time.Since(t0)
		if err != nil {
			errs = append(errs, fmt.Sprintf("replay partition %s: %v", rec.rid, err))
			continue
		}
		parts := make([][]int32, plan.K)
		complete := true
		for i := range parts {
			body, ok := captured[fmt.Sprintf("%s-s%d", rec.rid, i)]
			if !ok {
				complete = false
				break
			}
			var cr serve.ColorResponse
			if err := json.Unmarshal(body, &cr); err != nil {
				complete = false
				break
			}
			parts[i] = cr.Colors
		}
		if !complete {
			continue
		}
		t0 = time.Now()
		colors, _, err := shard.MergeRepair(g, plan, parts, rec.it.seed, 0, false)
		md := time.Since(t0)
		if err == nil {
			err = checkColoring(g, colors, rec.colors, distinctColors(colors))
		}
		if err != nil {
			errs = append(errs, fmt.Sprintf("replay merge %s: %v", rec.rid, err))
			continue
		}
		ps = append(ps, ms(pd))
		ms2 = append(ms2, ms(md))
	}
	return mean(ps), mean(ms2), errs
}

// replayDecode times the graph layer on the fleet's graphs as the
// coordinator receives them: edge-list parse (the coordinator takes JSON
// bodies only), then fingerprint.
func (e *fleetEnv) replayDecode() (decodeMS, fingerprintMS float64) {
	var dec, fp []float64
	for _, ds := range [][]dataset{e.big, e.small} {
		for _, d := range ds {
			t0 := time.Now()
			g, err := graph.ReadEdgeList(strings.NewReader(e.edgeText[d.g]))
			if err != nil {
				continue
			}
			dec = append(dec, ms(time.Since(t0)))
			t0 = time.Now()
			_ = g.Fingerprint()
			fp = append(fp, ms(time.Since(t0)))
		}
	}
	return mean(dec), mean(fp)
}
