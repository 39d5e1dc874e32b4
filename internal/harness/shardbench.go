package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"time"

	"asrs"
	"asrs/internal/agg"
	"asrs/internal/dataset"
	"asrs/internal/faultinject"
	"asrs/internal/shard"
)

// ShardBenchConfig drives the multi-shard routing benchmark behind
// BENCH_PR9.json: a merged corpus split into x-slab shards behind the
// scatter–gather router, measured with a closed-loop client mix of
// contained extents (single-shard routing), straddling extents
// (scatter–gather with the shared pruning cap) and the same mixes on a
// single merged-corpus engine — plus a breaker-trip/recovery timeline
// under injected shard panics. Every routed answer on the healthy path
// is checked bit-identical to the single engine first, so the bench
// doubles as an acceptance check for the routing layer (DESIGN.md §11).
type ShardBenchConfig struct {
	N         int // corpus cardinality (default 20000)
	Shards    int // shard count (default 4)
	Queries   int // extents per mode (default 12)
	Clients   int // concurrent closed-loop clients (default 8)
	PerClient int // requests per client per run (default 24)
	Seed      int64
	// BaselineNs optionally records an externally measured reference
	// ns/query for provenance.
	BaselineNs int64
	Note       string
}

func (c ShardBenchConfig) normalized() ShardBenchConfig {
	if c.N <= 0 {
		c.N = 20000
	}
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.Queries <= 0 {
		c.Queries = 12
	}
	if c.Clients <= 0 {
		c.Clients = 8
	}
	if c.PerClient <= 0 {
		c.PerClient = 24
	}
	return c
}

// ShardRun is one measured (mode, path) closed loop.
type ShardRun struct {
	// Mode is the extent mix: "contained" (each extent inside one
	// shard's slab), "straddling" (each extent spans at least one cut)
	// or "mixed" (alternating).
	Mode string `json:"mode"`
	// Path is "routed" (catalog + scatter–gather router) or
	// "single_engine" (one merged-corpus engine, the answer oracle).
	Path       string  `json:"path"`
	Requests   int     `json:"requests"`
	NsPerQuery int64   `json:"ns_per_query"`
	QPS        float64 `json:"qps"`
}

// BreakerEvent is one point on the trip/recovery timeline, measured
// from the moment the fault plan was activated.
type BreakerEvent struct {
	AtMs  float64 `json:"at_ms"`
	Event string  `json:"event"`
}

// BreakerTimeline reports the injected-panic trip and the subsequent
// half-open recovery of one shard, as observed by a best_effort client.
type BreakerTimeline struct {
	// QueriesToTrip is how many consecutive failures opened the breaker
	// (the configured threshold).
	QueriesToTrip int `json:"queries_to_trip"`
	// DegradedAnswers counts best_effort answers served from the
	// surviving shards while the breaker was open.
	DegradedAnswers int            `json:"degraded_answers"`
	Events          []BreakerEvent `json:"events"`
}

// ShardBenchReport is the JSON document written to BENCH_PR9.json.
type ShardBenchReport struct {
	Benchmark  string          `json:"benchmark"`
	Dataset    string          `json:"dataset"`
	N          int             `json:"n"`
	Shards     int             `json:"shards"`
	Cuts       []float64       `json:"cuts"`
	Queries    int             `json:"queries"`
	Clients    int             `json:"clients"`
	PerClient  int             `json:"per_client"`
	Seed       int64           `json:"seed"`
	GoMaxProcs int             `json:"gomaxprocs"`
	NumCPU     int             `json:"num_cpu"`
	Host       Host            `json:"host"`
	BaselineNs int64           `json:"baseline_ns_per_query,omitempty"`
	Note       string          `json:"note,omitempty"`
	Runs       []ShardRun      `json:"runs"`
	Breaker    BreakerTimeline `json:"breaker_timeline"`
}

// shardBenchExtents builds the contained and straddling extent lists
// from the catalog's cut set. Contained extents sit strictly inside one
// shard's clamped slab (rotating over shards); straddling extents are
// centered on a cut and span its neighbors.
func shardBenchExtents(cat *shard.Catalog, bounds asrs.Rect, a, b float64, k int) (contained, straddling []asrs.Rect) {
	shards := cat.Shards()
	cuts := cat.Cuts()
	for i := 0; len(contained) < k && i < 64*k; i++ {
		sh := shards[i%len(shards)]
		lo, hi := sh.Slab()
		lo, hi = math.Max(lo, bounds.MinX), math.Min(hi, bounds.MaxX)
		if hi-lo <= a {
			continue
		}
		// Shrink toward the slab center by a query-dependent margin so
		// the extents differ without ever touching the cut.
		margin := (hi - lo - a) * 0.04 * float64(i%5)
		y0 := bounds.MinY + (bounds.Height()-b)*0.1*float64(i%7)
		contained = append(contained, asrs.Rect{
			MinX: lo + margin/2, MinY: y0,
			MaxX: hi - margin/2, MaxY: math.Min(y0+b+bounds.Height()*0.4, bounds.MaxY),
		})
	}
	for i := 0; len(straddling) < k; i++ {
		c := cuts[i%len(cuts)]
		span := math.Max(a, bounds.Width()/float64(len(shards)+1)) * (1 + 0.15*float64(i%4))
		y0 := bounds.MinY + (bounds.Height()-b)*0.08*float64(i%6)
		straddling = append(straddling, asrs.Rect{
			MinX: math.Max(c-span, bounds.MinX), MinY: y0,
			MaxX: math.Min(c+span, bounds.MaxX), MaxY: bounds.MaxY - (bounds.Height()-b)*0.05*float64(i%3),
		})
	}
	return contained, straddling
}

// RunShardBench benchmarks routed serving against the single-engine
// oracle and records the breaker trip/recovery timeline, writing the
// JSON report to out. Any answer mismatch on the healthy path is an
// error.
func RunShardBench(out io.Writer, cfg ShardBenchConfig) error {
	cfg = cfg.normalized()
	ds := dataset.Random(cfg.N, 100, cfg.Seed)
	f := agg.MustNew(ds.Schema,
		agg.Spec{Kind: agg.Distribution, Attr: "cat"},
		agg.Spec{Kind: agg.Sum, Attr: "val"},
	)
	q := asrs.Query{F: f, Target: []float64{1, 2, 1, 5}}
	a, b := 8.0, 8.0

	cat, err := shard.New(ds, shard.Config{
		Shards:     cfg.Shards,
		Composites: map[string]*asrs.Composite{"q": f},
		Names:      []string{"q"},
	})
	if err != nil {
		return err
	}
	defer cat.Close()
	router := shard.NewRouter(cat, shard.RouterOptions{})
	oracle, err := asrs.NewEngine(ds, asrs.EngineOptions{})
	if err != nil {
		return err
	}

	report := ShardBenchReport{
		Benchmark:  "shard-router/random",
		Dataset:    "random",
		N:          cfg.N,
		Shards:     cfg.Shards,
		Cuts:       cat.Cuts(),
		Queries:    cfg.Queries,
		Clients:    cfg.Clients,
		PerClient:  cfg.PerClient,
		Seed:       cfg.Seed,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Host:       CollectHost(),
		BaselineNs: cfg.BaselineNs,
		Note:       cfg.Note,
	}

	bounds := ds.Bounds()
	contained, straddling := shardBenchExtents(cat, bounds, a, b, cfg.Queries)
	if len(contained) < cfg.Queries {
		return fmt.Errorf("harness: only %d of %d contained extents fit — slabs narrower than the query at %d shards",
			len(contained), cfg.Queries, cfg.Shards)
	}
	mixed := make([]asrs.Rect, 0, len(contained)+len(straddling))
	for i := range contained {
		mixed = append(mixed, contained[i], straddling[i])
	}

	// --- acceptance: every extent answers bit-identically routed vs the
	// merged-corpus engine, before anything is timed.
	for i, e := range mixed {
		ext := e
		resp := router.Query(context.Background(), shard.Request{Query: q, A: a, B: b, Extent: &ext})
		if resp.Err != nil {
			return fmt.Errorf("harness: routed query %d: %w", i, resp.Err)
		}
		want := oracle.QueryCtx(context.Background(), asrs.QueryRequest{Query: q, A: a, B: b, Within: &ext})
		if want.Err != nil {
			return fmt.Errorf("harness: oracle query %d: %w", i, want.Err)
		}
		if math.Float64bits(resp.Results[0].Dist) != math.Float64bits(want.Results[0].Dist) {
			return fmt.Errorf("harness: query %d: routed answered %v, single engine %v — routing must be exact",
				i, resp.Results[0].Dist, want.Results[0].Dist)
		}
	}

	// --- closed loop per (mode, path): Clients goroutines each issue
	// PerClient requests round-robin over the mode's extents.
	closedLoop := func(extents []asrs.Rect, issue func(asrs.Rect) error) (ShardRun, error) {
		var wg sync.WaitGroup
		errs := make([]error, cfg.Clients)
		start := time.Now()
		for c := 0; c < cfg.Clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < cfg.PerClient; i++ {
					if err := issue(extents[(c+i)%len(extents)]); err != nil {
						errs[c] = err
						return
					}
				}
			}(c)
		}
		wg.Wait()
		elapsed := time.Since(start)
		for _, err := range errs {
			if err != nil {
				return ShardRun{}, err
			}
		}
		total := cfg.Clients * cfg.PerClient
		run := ShardRun{Requests: total, NsPerQuery: elapsed.Nanoseconds() / int64(total)}
		if elapsed > 0 {
			run.QPS = float64(total) / elapsed.Seconds()
		}
		return run, nil
	}
	routed := func(e asrs.Rect) error {
		resp := router.Query(context.Background(), shard.Request{Query: q, A: a, B: b, Extent: &e})
		return resp.Err
	}
	single := func(e asrs.Rect) error {
		return oracle.QueryCtx(context.Background(), asrs.QueryRequest{Query: q, A: a, B: b, Within: &e}).Err
	}
	for _, m := range []struct {
		mode    string
		extents []asrs.Rect
	}{{"contained", contained}, {"straddling", straddling}, {"mixed", mixed}} {
		for _, p := range []struct {
			path  string
			issue func(asrs.Rect) error
		}{{"routed", routed}, {"single_engine", single}} {
			run, err := closedLoop(m.extents, p.issue)
			if err != nil {
				return fmt.Errorf("harness: %s/%s: %w", m.mode, p.path, err)
			}
			run.Mode, run.Path = m.mode, p.path
			report.Runs = append(report.Runs, run)
		}
	}

	// --- breaker trip/recovery timeline. A fresh router with a fast
	// breaker; contained queries against shard 0 under an injected panic
	// trip it open, then a best_effort client watches the half-open
	// probe readmit the shard.
	tl, err := shardBreakerTimeline(cat, q, a, b, contained[0], straddling[0], cfg.Seed)
	if err != nil {
		return err
	}
	report.Breaker = tl

	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}

// shardBreakerTimeline trips shard 0's breaker with injected panics and
// times the best_effort degradation and half-open recovery.
func shardBreakerTimeline(cat *shard.Catalog, q asrs.Query, a, b float64, containedInShard0, straddler asrs.Rect, seed int64) (BreakerTimeline, error) {
	const backoff = 50 * time.Millisecond
	router := shard.NewRouter(cat, shard.RouterOptions{Breaker: shard.BreakerConfig{
		FailureThreshold: 3,
		BaseBackoff:      backoff,
		MaxBackoff:       4 * backoff,
		Seed:             seed,
	}})
	var tl BreakerTimeline
	ctx := context.Background()

	faultinject.Activate(faultinject.NewPlan(seed,
		faultinject.Spec{Point: "shard.search.panic", Action: faultinject.ActPanic, MaxEvery: 1},
	))
	defer faultinject.Deactivate()
	start := time.Now()
	for i := 0; i < 100; i++ {
		resp := router.Query(ctx, shard.Request{Query: q, A: a, B: b, Extent: &containedInShard0, Policy: shard.Strict})
		if resp.Err == nil {
			faultinject.Deactivate()
			return tl, fmt.Errorf("harness: query under injected panic succeeded")
		}
		tl.QueriesToTrip++
		if router.Stats().Shards[0].Breaker.State == "open" {
			break
		}
	}
	tl.Events = append(tl.Events, BreakerEvent{AtMs: msSince(start), Event: "breaker_open"})
	faultinject.Deactivate()

	// Breaker open, fault cleared: best_effort straddlers answer from
	// the survivors until the half-open probe readmits shard 0.
	for {
		resp := router.Query(ctx, shard.Request{Query: q, A: a, B: b, Extent: &straddler, Policy: shard.BestEffort})
		if resp.Err != nil {
			return tl, fmt.Errorf("harness: best_effort during open breaker: %w", resp.Err)
		}
		if resp.Coverage.Complete() {
			tl.Events = append(tl.Events, BreakerEvent{AtMs: msSince(start), Event: "recovered"})
			break
		}
		if tl.DegradedAnswers == 0 {
			tl.Events = append(tl.Events, BreakerEvent{AtMs: msSince(start), Event: "first_degraded_answer"})
		}
		tl.DegradedAnswers++
		if msSince(start) > 60_000 {
			return tl, fmt.Errorf("harness: breaker never recovered (open after %d degraded answers)", tl.DegradedAnswers)
		}
		time.Sleep(backoff / 10)
	}
	return tl, nil
}

func msSince(t time.Time) float64 {
	return float64(time.Since(t).Nanoseconds()) / 1e6
}
