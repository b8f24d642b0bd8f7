package serve

import "sync"

// CacheKey identifies a (graph content, coloring policy) pair: the graph
// fingerprint plus the folded request knobs that can change the coloring.
// It keys a server's result cache, coalescing map and journal records, and
// a cluster coordinator's merged-result cache.
type CacheKey struct {
	FP     uint64
	Policy uint64
}

// KeyOf derives the cache key of req on the graph with fingerprint fp. The
// shard count is part of the policy fold — a K-shard run and a
// single-device run of the same graph produce different (both proper)
// colorings, and callers pinning Shards expect the one they asked for. A
// server folds the effective shard count; a coordinator, whose fleet size
// changes under it, folds the request's Shards pin.
func KeyOf(req *Request, fp uint64, shards int) CacheKey {
	k := req.policyKey()
	k ^= uint64(uint32(shards))
	k *= 0x100000001b3
	return CacheKey{FP: fp, Policy: k}
}

// idemEntry is the idempotency map's value: the response a client
// Idempotency-Key produced, with what journal snapshots need to re-key it.
// The map is consulted before the result cache — even for NoCache
// requests, since an idempotent retry explicitly asks for the stored
// answer — and is warm-started from journal completion records, which is
// what makes retries safe across restarts.
type idemEntry struct {
	res     *Response
	noCache bool   // the producing request bypassed the result cache
	pk      uint64 // the producing request's policy key (journal snapshots)
}

// flight is one in-flight execution that any number of duplicate requests
// wait on. done is closed exactly once, after res/err are set; the once
// guard makes completion idempotent, so the several paths that can end a
// job (worker, queue expiry, drain hand-off, hedged attempts) never race
// a double close.
type flight struct {
	once sync.Once
	done chan struct{}
	res  *Response
	err  error
}

// complete publishes the outcome and releases every waiter. Only the
// first call takes effect.
func (f *flight) complete(res *Response, err error) {
	f.once.Do(func() {
		f.res = res
		f.err = err
		close(f.done)
	})
}
