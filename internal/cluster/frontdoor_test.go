package cluster_test

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"net/http"
	"slices"
	"testing"
	"time"

	"gcolor/internal/cluster"
	"gcolor/internal/gen"
	"gcolor/internal/graph"
	"gcolor/internal/journal"
	"gcolor/internal/serve"
)

// The coordinator's cache and idempotency hits follow serve's cloneHit
// rule: a caller mutating the Colors it got back from Submit — on the miss
// path or on a hit — must not change what later hits and replays return.
func TestCoordinatorHitsDoNotAliasColors(t *testing.T) {
	w := newTestWorker(t, serve.Config{})
	coord, _ := newTestCoordinator(t, cluster.Config{}, w)
	ctx := context.Background()
	cr := &serve.ColorRequest{Gen: "grid:12:12", Alg: "baseline"}

	first, err := coord.Submit(ctx, cr, "alias-1", "alias-key", nil)
	if err != nil {
		t.Fatalf("first submit: %v", err)
	}
	want := slices.Clone(first.Colors)
	for i := range first.Colors {
		first.Colors[i] = 999
	}

	hit, err := coord.Submit(ctx, cr, "alias-2", "", nil)
	if err != nil || !hit.Cached {
		t.Fatalf("repeat: cached=%v err=%v, want a cache hit", hit != nil && hit.Cached, err)
	}
	if !slices.Equal(hit.Colors, want) {
		t.Fatal("cache hit returned the colors a previous caller mutated")
	}
	hit.Colors[0] = 999

	replay, err := coord.Submit(ctx, cr, "alias-3", "alias-key", nil)
	if err != nil || !replay.IdempotentReplay {
		t.Fatalf("keyed repeat: replay=%v err=%v, want an idempotent replay", replay != nil && replay.IdempotentReplay, err)
	}
	if !slices.Equal(replay.Colors, want) {
		t.Fatal("idempotent replay returned the colors a previous caller mutated")
	}
	again, _ := coord.Submit(ctx, cr, "alias-4", "", nil)
	if again == nil || !slices.Equal(again.Colors, want) {
		t.Fatal("mutating a cache hit's colors corrupted the cached entry")
	}
}

// The request's Shards pin is part of the coordinator's cache key: after a
// 2-shard scatter, a pinned single-worker request for the same graph is
// executed whole instead of being answered with the scattered coloring.
func TestCoordinatorShardPinSplitsCacheKey(t *testing.T) {
	w1 := newTestWorker(t, serve.Config{})
	w2 := newTestWorker(t, serve.Config{})
	_, ts := newTestCoordinator(t, cluster.Config{}, w1, w2)

	scat, code, kind := postColor(t, ts.URL, &serve.ColorRequest{Gen: "grid:16:16", Alg: "baseline", Shards: 2}, "pin-2", "")
	if scat == nil || !scat.Scattered {
		t.Fatalf("Shards=2 not scattered: resp=%+v code=%d kind=%s", scat, code, kind)
	}
	whole, code, kind := postColor(t, ts.URL, &serve.ColorRequest{Gen: "grid:16:16", Alg: "baseline", Shards: 1}, "pin-1", "")
	if whole == nil {
		t.Fatalf("Shards=1 failed: %d %s", code, kind)
	}
	if whole.Cached || whole.Scattered || whole.Shards > 1 {
		t.Fatalf("Shards=1 answered from the scattered entry: cached=%v scattered=%v shards=%d",
			whole.Cached, whole.Scattered, whole.Shards)
	}
	again, _, _ := postColor(t, ts.URL, &serve.ColorRequest{Gen: "grid:16:16", Alg: "baseline", Shards: 2}, "pin-2b", "")
	if again == nil || !again.Cached || !again.Scattered {
		t.Fatalf("repeat Shards=2 not a hit on the scattered entry: %+v", again)
	}
}

// The coordinator speaks the workers' wire contract, graph_csr_b64
// included: the body is parsed by the same serve.BuildRequest.
func TestCoordinatorAcceptsGraphCSRB64(t *testing.T) {
	w := newTestWorker(t, serve.Config{})
	_, ts := newTestCoordinator(t, cluster.Config{}, w)

	g := gen.Grid2D(9, 9)
	cr := &serve.ColorRequest{
		GraphCSRB64:   base64.StdEncoding.EncodeToString(graph.EncodeWireCSR(g)),
		Alg:           "baseline",
		IncludeColors: true,
	}
	got, code, kind := postColor(t, ts.URL, cr, "csr-1", "")
	if got == nil {
		t.Fatalf("graph_csr_b64 request refused: %d %s", code, kind)
	}
	if got.Vertices != g.NumVertices() || len(got.Colors) != g.NumVertices() {
		t.Fatalf("vertices=%d colors=%d, want %d", got.Vertices, len(got.Colors), g.NumVertices())
	}
	if want := graph.FingerprintString(g.Fingerprint()); got.Fingerprint != want {
		t.Fatalf("fingerprint %s, want %s", got.Fingerprint, want)
	}

	both := *cr
	both.Gen = "grid:9:9"
	if _, code, _ := postColor(t, ts.URL, &both, "csr-2", ""); code != http.StatusBadRequest {
		t.Fatalf("graph_csr_b64 plus gen: status %d, want 400", code)
	}
}

// Every pending accept a recovering coordinator replays is settled in the
// journal, including one answered from the warm cache and one refused as
// a bad request, so the journal holds no pending accepts after the first
// recovery instead of replaying them on every restart.
func TestCoordinatorReplaySettlesEveryPendingAccept(t *testing.T) {
	dir := t.TempDir()
	w := newTestWorker(t, serve.Config{})
	cr := &serve.ColorRequest{Gen: "grid:12:12", Alg: "baseline"}
	wire, _ := json.Marshal(cr)

	j, rec, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatalf("open journal: %v", err)
	}
	coord, _ := newTestCoordinator(t, cluster.Config{Journal: j, Recovery: rec}, w)
	if _, err := coord.Submit(context.Background(), cr, "settle-seed", "", wire); err != nil {
		t.Fatalf("seed submit: %v", err)
	}
	// Two accepts a crash left without completions: a repeat of the seed
	// (the warm cache answers it) and a body the coordinator refuses.
	req, g, err := serve.BuildRequest(cr, serve.NewSpecCache(1))
	if err != nil {
		t.Fatalf("build request: %v", err)
	}
	key := serve.KeyOf(req, g.Fingerprint(), cr.Shards)
	for _, a := range []journal.AcceptRecord{
		{ID: "settle-hit", Fingerprint: key.FP, PolicyKey: key.Policy, Wire: wire},
		{ID: "settle-bad", Wire: json.RawMessage(`{"gen":"grid:4:4","alg":"no-such-alg"}`)},
	} {
		a.AcceptedUnixMS = time.Now().UnixMilli()
		if err := j.AppendAccept(a); err != nil {
			t.Fatalf("append accept: %v", err)
		}
	}
	coord.Close()
	if err := j.Close(); err != nil {
		t.Fatalf("close journal: %v", err)
	}

	for restart := 1; restart <= 3; restart++ {
		j, rec, err := journal.Open(dir, journal.Options{})
		if err != nil {
			t.Fatalf("restart %d: open journal: %v", restart, err)
		}
		want := 0
		if restart == 1 {
			want = 2
		}
		if len(rec.Pending) != want {
			t.Fatalf("restart %d: %d pending accepts, want %d", restart, len(rec.Pending), want)
		}
		coord, _ := newTestCoordinator(t, cluster.Config{Journal: j, Recovery: rec}, w)
		for deadline := time.Now().Add(10 * time.Second); !coord.Stats().RecoveryDone; {
			if time.Now().After(deadline) {
				t.Fatalf("restart %d: recovery did not finish", restart)
			}
			time.Sleep(5 * time.Millisecond)
		}
		coord.Close()
		if err := j.Close(); err != nil {
			t.Fatalf("restart %d: close journal: %v", restart, err)
		}
	}
}
