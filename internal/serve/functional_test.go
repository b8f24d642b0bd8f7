package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"gcolor/internal/color"
	"gcolor/internal/gen"
	"gcolor/internal/graph"
)

// TestDeltaFallbackRunsFunctional: an over-budget delta recolors on a
// functional device. Its reply has the accounted run's colors and
// iterations but zero cycles, its host time lands in exec_functional_us
// rather than exec_us, and a later full upload of the same content is a
// cache hit reporting zero cycles too.
func TestDeltaFallbackRunsFunctional(t *testing.T) {
	s := NewServer(Config{Devices: 1, Delta: DeltaConfig{FrontierFraction: 1e-9}})
	defer s.Stop()
	g := gen.RMAT(8, 8, gen.Graph500, 3)
	base, err := s.Submit(context.Background(), &Request{Graph: g, Resident: true})
	if err != nil {
		t.Fatal(err)
	}
	if base.Cycles == 0 {
		t.Fatal("resident upload reports no cycles; uploads must stay accounted")
	}
	d := &graph.Delta{AddEdges: [][2]int32{{0, 255}, {1, 254}}}
	res, err := s.Submit(context.Background(), &Request{Delta: d, BaseFingerprint: base.Fingerprint})
	if err != nil {
		t.Fatal(err)
	}
	if !res.DeltaFallback {
		t.Fatal("delta did not fall back")
	}
	ng, _, _, _ := graph.ApplyDelta(g, d)
	if err := color.Verify(ng, res.Colors); err != nil {
		t.Fatalf("fallback coloring invalid: %v", err)
	}
	if res.Cycles != 0 {
		t.Errorf("fallback reply reports %d cycles, want 0", res.Cycles)
	}

	// The same recolor, accounted, on a server that only sees uploads.
	ref := NewServer(Config{Devices: 1})
	defer ref.Stop()
	want, err := ref.Submit(context.Background(), &Request{Graph: ng})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(res.Colors, want.Colors) || res.Iterations != want.Iterations || want.Cycles == 0 {
		t.Errorf("fallback: %d iterations, accounted upload %d iterations and %d cycles; colors equal %v",
			res.Iterations, want.Iterations, want.Cycles, slices.Equal(res.Colors, want.Colors))
	}

	st := s.Stats()
	if st.FunctionalRuns != 1 || s.Metrics().Histogram("exec_functional_us").Total() != 1 ||
		s.Metrics().Histogram("exec_us").Total() != 1 {
		t.Errorf("functional_runs_total %d, exec_functional_us count %d, exec_us count %d; want 1, 1, 1 (the upload)",
			st.FunctionalRuns, s.Metrics().Histogram("exec_functional_us").Total(), s.Metrics().Histogram("exec_us").Total())
	}
	if st.ExecFunctionalP50us <= 0 {
		t.Errorf("ExecFunctionalP50us = %d, want the fallback's exec time", st.ExecFunctionalP50us)
	}

	hit, err := s.Submit(context.Background(), &Request{Graph: ng})
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Cached || hit.Cycles != 0 {
		t.Errorf("upload of the fallback's graph: cached %v cycles %d, want a cache hit with 0 cycles", hit.Cached, hit.Cycles)
	}

	ts := httptest.NewServer(Handler(s))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{"functional_runs_total 1\n", "exec_functional_us.count 1\n", "exec_us.count 1\n"} {
		if !strings.Contains(string(text), line) {
			t.Errorf("/metricsz lacks %q", strings.TrimSpace(line))
		}
	}
}

// TestBatchKeepsModesApart: a queued delta fallback (functional) and an
// accounted upload of the same batch class never share a fused launch,
// so the upload's cycles are exactly those of its solo run.
func TestBatchKeepsModesApart(t *testing.T) {
	s := NewServer(Config{Devices: 1, Workers: 1, Delta: DeltaConfig{FrontierFraction: 1e-9}})
	defer s.Stop()
	base := gen.Grid2D(8, 8)
	baseFp := submitResident(t, s, base)

	blockerDone := make(chan struct{})
	go func() {
		defer close(blockerDone)
		if _, err := s.Submit(context.Background(), &Request{Graph: slowBlockerGraph(), NoCache: true}); err != nil {
			t.Errorf("blocker: %v", err)
		}
	}()
	waitFor(t, "blocker to occupy the device", func() bool {
		return s.Metrics().Gauge("devices_busy").Value() == 1
	})

	upload := gen.GNM(120, 480, 2)
	type result struct {
		res *Response
		err error
	}
	fallbackCh, uploadCh := make(chan result, 1), make(chan result, 1)
	go func() {
		res, err := s.Submit(context.Background(), &Request{
			Delta: &graph.Delta{AddEdges: [][2]int32{{0, 63}}}, BaseFingerprint: baseFp,
		})
		fallbackCh <- result{res, err}
	}()
	waitFor(t, "fallback to queue", func() bool { return s.Stats().QueueDepth == 1 })
	go func() {
		res, err := s.Submit(context.Background(), &Request{Graph: upload})
		uploadCh <- result{res, err}
	}()
	waitFor(t, "upload to queue", func() bool { return s.Stats().QueueDepth == 2 })
	<-blockerDone
	fb, up := <-fallbackCh, <-uploadCh
	if fb.err != nil || up.err != nil {
		t.Fatalf("fallback err %v, upload err %v", fb.err, up.err)
	}
	if fb.res.Batched || up.res.Batched || s.Stats().Batches != 0 {
		t.Fatalf("fallback batched %v, upload batched %v, batches %d: modes shared a launch",
			fb.res.Batched, up.res.Batched, s.Stats().Batches)
	}
	if fb.res.Cycles != 0 || !fb.res.DeltaFallback {
		t.Errorf("fallback: cycles %d, delta fallback %v; want 0 cycles", fb.res.Cycles, fb.res.DeltaFallback)
	}
	solo := NewServer(Config{Devices: 1, Batch: BatchConfig{Disabled: true}})
	defer solo.Stop()
	want, err := solo.Submit(context.Background(), &Request{Graph: upload})
	if err != nil {
		t.Fatal(err)
	}
	if up.res.Cycles != want.Cycles || !slices.Equal(up.res.Colors, want.Colors) {
		t.Errorf("upload queued beside a fallback: %d cycles, solo run %d", up.res.Cycles, want.Cycles)
	}
}

// TestGenBARepeatIsCacheHit: a "ba:" spec names one graph, so repeating
// the request through a second handler (its own spec memo, so the graph
// is generated again) hits the result cache.
func TestGenBARepeatIsCacheHit(t *testing.T) {
	s := NewServer(Config{Devices: 1})
	defer s.Stop()
	var replies []ColorResponse
	for range 2 {
		ts := httptest.NewServer(Handler(s))
		resp, body := postColor(t, ts, ColorRequest{Gen: "ba:400:3:9"})
		ts.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var cr ColorResponse
		if err := json.Unmarshal(body, &cr); err != nil {
			t.Fatal(err)
		}
		replies = append(replies, cr)
	}
	if replies[0].Fingerprint != replies[1].Fingerprint || !replies[1].Cached {
		t.Fatalf("repeated ba request: fingerprints %s / %s, second cached %v; want one graph and a cache hit",
			replies[0].Fingerprint, replies[1].Fingerprint, replies[1].Cached)
	}
}
