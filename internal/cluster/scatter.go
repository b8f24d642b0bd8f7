package cluster

import (
	"context"
	"encoding/base64"
	"fmt"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"gcolor/internal/graph"
	"gcolor/internal/serve"
	"gcolor/internal/shard"
)

// scatter runs one job as a cross-worker scatter-gather through
// shard.ColorSharded — the same partition, fan-out, merge barrier and
// boundary repair a server runs across its devices — with one sub-job
// POSTed per shard to a rendezvous-chosen worker. The repair runs here, at
// the coordinator, because only the coordinator holds the whole graph.
//
// Failover: a shard whose worker fails retryably is re-dispatched to a
// different worker (exclude-failed), bounded by ShardAttempts — with the
// default 2, exactly one re-dispatch. Sub-jobs are sent no-cache so
// workers do not stash shard fragments under the subgraph's fingerprint;
// the merged result lives only in the coordinator's cache.
func (c *Coordinator) scatter(ctx context.Context, g *graph.Graph, cr *serve.ColorRequest, rid string, fp uint64, k int) (*serve.ColorResponse, error) {
	// Every shard dispatch is deadline-bounded even when the caller's
	// context is not: a single hung worker must never hang the merge
	// barrier.
	ctx, cancel := c.workerCtx(ctx)
	defer cancel()
	iters := make([]int, k)
	var redone atomic.Int64
	sr, err := shard.ColorSharded(ctx, g, shard.Options{
		K:               k,
		Seed:            cr.Seed,
		MaxRepairRounds: c.cfg.Shard.MaxRepairRounds,
		NoFallback:      cr.NoCPUFallback,
	}, func(ctx context.Context, i int, sub *graph.Graph) ([]int32, int64, error) {
		colors, cycles, it, attempts, err := c.dispatchShard(ctx, sub, cr, rid, fp, i, k)
		iters[i] = it
		redone.Add(int64(attempts - 1))
		return colors, cycles, err
	})
	if err != nil {
		return nil, err
	}
	st := sr.Repair
	return &serve.ColorResponse{
		Colors:            sr.Colors,
		NumColors:         sr.NumColors,
		Vertices:          g.NumVertices(),
		Edges:             g.NumEdges(),
		Cycles:            sr.CyclesTotal, // serial-equivalent fleet work
		Iterations:        slices.Max(iters),
		Shards:            sr.K,
		ShardConflicts:    st.Conflicts,
		ShardRepairRounds: st.Rounds,
		ShardRecolored:    st.Recolored,
		Device:            -1, // the job spanned several workers
		Scattered:         true,
		Redispatched:      int(redone.Load()),
	}, nil
}

// dispatchShard sends one shard sub-job, failing over across workers up
// to ShardAttempts times. The shard's rendezvous key decorrelates from
// the whole graph's (and from sibling shards') so the K sub-jobs of one
// scatter spread across the fleet instead of piling onto fp's owner.
func (c *Coordinator) dispatchShard(ctx context.Context, sub *graph.Graph, cr *serve.ColorRequest, rid string, fp uint64, i, k int) (colors []int32, cycles int64, iterations, attempts int, err error) {
	// Shards travel as binary CSR frames (base64 in the JSON envelope),
	// not edge-list text: the worker decodes the frame straight into its
	// CSR arrays instead of re-parsing and re-sorting an edge list whose
	// text form is several times the frame size.
	req := serve.ColorRequest{
		GraphCSRB64:   base64.StdEncoding.EncodeToString(graph.EncodeWireCSR(sub)),
		Alg:           cr.Alg,
		Seed:          cr.Seed + uint32(i), // decorrelate per-shard priorities
		Threshold:     cr.Threshold,
		Fused:         cr.Fused,
		CycleBudget:   cr.CycleBudget,
		MaxRetries:    cr.MaxRetries,
		NoCPUFallback: cr.NoCPUFallback,
		NoCache:       true, // only the coordinator caches the merged result
		IncludeColors: true,
	}
	// rid-s<i> keeps the worker journal's evidence trail pointing at the
	// originating coordinator request while keeping shard records distinct.
	shardRID := ""
	if rid != "" {
		shardRID = rid + "-s" + strconv.Itoa(i)
	}
	key := mix64(fp ^ (uint64(i)+1)*0x9e3779b97f4a7c15)
	exclude := make(map[int]bool)
	var lastErr error
	for attempt := 0; attempt < c.cfg.ShardAttempts; attempt++ {
		m, probe, err := c.reg.pick(key, exclude)
		if err != nil {
			break // no worker left to try; report the shard's last failure
		}
		m.jobs.Add(1)
		attempts++
		start := time.Now()
		resp, err := callWorker(ctx, c.client, m.addr, &req, shardRID, "", c.epoch)
		exec := time.Since(start)
		if err == nil {
			if len(resp.Colors) != sub.NumVertices() {
				err = &WorkerError{
					Worker: m.addr, Status: 200, Kind: "bad_shard_reply",
					Err: fmt.Errorf("shard %d: got %d colors for %d vertices", i, len(resp.Colors), sub.NumVertices()),
				}
			} else {
				m.seen(time.Now())
				c.reg.observe(m, probe, true, 1, exec)
				return resp.Colors, resp.Cycles, resp.Iterations, attempts, nil
			}
		}
		lastErr = err
		we, _ := err.(*WorkerError)
		if we != nil && we.Status > 0 {
			m.seen(time.Now())
		}
		if c.noteStaleEpoch(we) {
			break // every worker will fence us; stop the shard here
		}
		good, reward := judgeWorkerError(we)
		c.reg.observe(m, probe, good, reward, exec)
		if ctx.Err() != nil {
			return nil, 0, 0, attempts, ctx.Err()
		}
		if we == nil || !we.Retryable() {
			break
		}
		exclude[m.id] = true
		c.redispatches.Add(1)
	}
	if lastErr == nil {
		lastErr = ErrNoWorkers
	}
	return nil, 0, 0, attempts, &ShardError{Shard: i, Shards: k, Attempts: attempts, Err: lastErr}
}
