package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"time"

	"asrs"
	"asrs/internal/dataset"
	"asrs/internal/server"
)

// ServeBenchConfig drives the closed-loop HTTP serving benchmark behind
// BENCH_PR5.json: concurrent clients fire overlapping Singapore-extent
// queries at a real asrsd-shaped server (JSON over localhost HTTP) in
// two configurations at equal worker count — the coalescing window
// collector on, and off (window=0; every request dispatches alone). The
// traffic is Zipf-ish (a hot set of popular queries dominates), which is
// exactly the shape request dedup and shared prepared query shapes
// amortize. Every response distance is verified bit-identical to a
// direct Engine.QueryCtx, and a deadline probe asserts 504s never perturb
// concurrent answers — the bench doubles as the acceptance check for
// the serving layer.
type ServeBenchConfig struct {
	N         int   // corpus cardinality (default 100000)
	Clients   int   // concurrent closed-loop clients (default 32)
	PerClient int   // requests each client issues (default 8)
	Hot       int   // hot-set size: popular distinct queries (default 8)
	Distinct  int   // total distinct queries incl. the hot set (default 32)
	Seed      int64 // corpus + extent + traffic seed
	Workers   []int // kernel worker sweep (default 1)
	// Window and MaxBatch configure the coalesced mode. Zero Window
	// selects the bench's throughput-oriented 25ms default (not the
	// server package's latency-lean 2ms — see normalized); don't pass a
	// negative Window, which would silently measure a second
	// uncoalesced run under the "coalesced" label.
	Window   time.Duration
	MaxBatch int
	// BaselineNs optionally records an externally measured reference
	// ns/query for provenance.
	BaselineNs int64
	Note       string
}

func (c ServeBenchConfig) normalized() ServeBenchConfig {
	if c.N <= 0 {
		c.N = 100000
	}
	if c.Clients <= 0 {
		c.Clients = 32
	}
	if c.PerClient <= 0 {
		c.PerClient = 8
	}
	if c.Hot <= 0 {
		c.Hot = 8
	}
	if c.Distinct <= c.Hot {
		c.Distinct = c.Hot * 4
	}
	if len(c.Workers) == 0 {
		c.Workers = []int{1}
	}
	if c.Window == 0 {
		// Throughput-oriented window: queries on the serving-scale corpus
		// cost tens of ms, so a window in that ballpark keeps client
		// cohorts coherent (a 2ms window decoheres under 1-CPU scheduling
		// jitter and the realized batch width collapses). The added
		// latency stays below one query's own service time.
		c.Window = 25 * time.Millisecond
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = server.DefaultMaxBatch
	}
	return c
}

// ServeBenchRun is one measured (mode, workers) configuration.
type ServeBenchRun struct {
	Mode       string  `json:"mode"` // "coalesced" or "uncoalesced"
	Workers    int     `json:"workers"`
	Requests   int     `json:"requests"`
	ElapsedNs  int64   `json:"elapsed_ns"`
	NsPerQuery int64   `json:"ns_per_query"`
	QPS        float64 `json:"queries_per_sec"`
	// Batches/AvgBatch/DedupHits report what the coalescer actually did
	// during the timed run.
	Batches   int64   `json:"batches"`
	AvgBatch  float64 `json:"avg_batch"`
	DedupHits int64   `json:"dedup_hits"`
	// Speedup is this run's throughput over the uncoalesced run at the
	// same worker count (the acceptance ratio).
	Speedup float64 `json:"speedup_vs_uncoalesced,omitempty"`
}

// ServeBenchReport is the JSON document written to BENCH_PR5.json.
type ServeBenchReport struct {
	Benchmark  string          `json:"benchmark"`
	Dataset    string          `json:"dataset"`
	N          int             `json:"n"`
	Clients    int             `json:"clients"`
	PerClient  int             `json:"per_client"`
	Hot        int             `json:"hot_set"`
	Distinct   int             `json:"distinct_queries"`
	WindowMS   float64         `json:"window_ms"`
	MaxBatch   int             `json:"max_batch"`
	Seed       int64           `json:"seed"`
	GoMaxProcs int             `json:"gomaxprocs"`
	NumCPU     int             `json:"num_cpu"`
	Host       Host            `json:"host"`
	BaselineNs int64           `json:"baseline_ns_per_query,omitempty"`
	Note       string          `json:"note,omitempty"`
	Dists      []float64       `json:"dists"` // per-distinct-query answers, verified in every run
	Runs       []ServeBenchRun `json:"runs"`
}

// ServeQueries builds a pool of k distinct wire+engine query pairs: overlapping
// query-by-example extents sharing one (a, b) shape, with inflated
// virtual targets so every request runs a real search.
func ServeQueries(ds *asrs.Dataset, f *asrs.Composite, name string, k int, seed int64) ([]server.Query, []asrs.QueryRequest, error) {
	bounds := ds.Bounds()
	a := bounds.Width() / 32
	b := bounds.Height() / 32
	rng := rand.New(rand.NewSource(seed ^ 0x5e12e))
	wire := make([]server.Query, k)
	reqs := make([]asrs.QueryRequest, k)
	for i := range wire {
		cx := bounds.MinX + bounds.Width()*(0.15+0.65*rng.Float64())
		cy := bounds.MinY + bounds.Height()*(0.15+0.65*rng.Float64())
		rq := asrs.Rect{MinX: cx, MinY: cy, MaxX: cx + a, MaxY: cy + b}
		q, err := asrs.QueryFromRegion(ds, f, nil, rq)
		if err != nil {
			return nil, nil, err
		}
		for j := range q.Target {
			q.Target[j] = math.Trunc(q.Target[j]*1.1) + 0.5
		}
		wire[i] = server.Query{Composite: name, A: a, B: b, Target: q.Target}
		reqs[i] = asrs.QueryRequest{Query: q, A: a, B: b}
	}
	return wire, reqs, nil
}

// postQuery sends one wire query and decodes the response.
func postQuery(client *http.Client, url string, wq server.Query) (int, server.Response, error) {
	status, _, wr, err := postQueryHdr(client, url, wq)
	return status, wr, err
}

func postQueryHdr(client *http.Client, url string, wq server.Query) (int, http.Header, server.Response, error) {
	raw, err := json.Marshal(wq)
	if err != nil {
		return 0, nil, server.Response{}, err
	}
	resp, err := client.Post(url+"/v1/query", "application/json", bytes.NewReader(raw))
	if err != nil {
		return 0, nil, server.Response{}, err
	}
	defer resp.Body.Close()
	var wr server.Response
	if err := json.NewDecoder(resp.Body).Decode(&wr); err != nil {
		return resp.StatusCode, resp.Header, server.Response{}, err
	}
	return resp.StatusCode, resp.Header, wr, nil
}

// postQueryRetry is postQuery honoring the server's degradation
// contract: a 429 backs off for the advertised Retry-After (the
// server derives it from its service-time EWMA and guarantees it is
// never zero) and retries, up to maxRetries shed responses. Other
// statuses return immediately.
func postQueryRetry(client *http.Client, url string, wq server.Query, maxRetries int) (int, server.Response, error) {
	for attempt := 0; ; attempt++ {
		status, hdr, wr, err := postQueryHdr(client, url, wq)
		if err != nil || status != http.StatusTooManyRequests || attempt >= maxRetries {
			return status, wr, err
		}
		secs, err := strconv.Atoi(hdr.Get("Retry-After"))
		if err != nil || secs < 1 {
			return status, wr, fmt.Errorf("harness: shed response carried Retry-After %q, want a positive integer", hdr.Get("Retry-After"))
		}
		time.Sleep(time.Duration(secs) * time.Second)
	}
}

// RunServeBench benchmarks coalesced against uncoalesced serving and
// writes the JSON report to out. Any distance mismatch against the
// direct-engine reference is an error.
func RunServeBench(out io.Writer, cfg ServeBenchConfig) error {
	cfg = cfg.normalized()
	ds := dataset.SingaporeScaled(cfg.N, cfg.Seed)
	f, err := asrs.NewComposite(ds.Schema,
		asrs.AggSpec{Kind: asrs.Distribution, Attr: "category"},
		asrs.AggSpec{Kind: asrs.Count},
	)
	if err != nil {
		return err
	}
	wire, reqs, err := ServeQueries(ds, f, "poi", cfg.Distinct, cfg.Seed)
	if err != nil {
		return err
	}

	// Direct-engine reference answers (worker-independent by the kernel
	// determinism contract, so one pass suffices).
	refEng, err := asrs.NewEngine(ds, asrs.EngineOptions{IndexGranularity: 64})
	if err != nil {
		return err
	}
	dists := make([]float64, len(reqs))
	for i, req := range reqs {
		resp := refEng.QueryCtx(context.Background(), req)
		if resp.Err != nil {
			return fmt.Errorf("harness: reference query %d failed: %v", i, resp.Err)
		}
		dists[i] = resp.Results[0].Dist
	}

	// Zipf-ish traffic: 80% of requests hit the hot set, the rest the
	// cold tail. The same schedule drives both modes.
	total := cfg.Clients * cfg.PerClient
	traffic := make([]int, total)
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x7aff1c))
	for i := range traffic {
		if rng.Float64() < 0.8 {
			traffic[i] = rng.Intn(cfg.Hot)
		} else {
			traffic[i] = cfg.Hot + rng.Intn(cfg.Distinct-cfg.Hot)
		}
	}

	report := ServeBenchReport{
		Benchmark:  "serve/singapore",
		Dataset:    "singapore-scaled",
		N:          len(ds.Objects),
		Clients:    cfg.Clients,
		PerClient:  cfg.PerClient,
		Hot:        cfg.Hot,
		Distinct:   cfg.Distinct,
		WindowMS:   float64(cfg.Window.Microseconds()) / 1e3,
		MaxBatch:   cfg.MaxBatch,
		Seed:       cfg.Seed,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Host:       CollectHost(),
		BaselineNs: cfg.BaselineNs,
		Note:       cfg.Note,
		Dists:      dists,
	}

	type mode struct {
		name   string
		window time.Duration
	}
	modes := []mode{
		{"uncoalesced", 0}, // measured first: its w=1 run is the speedup denominator
		{"coalesced", cfg.Window},
	}
	uncoalescedNs := map[int]int64{}
	for _, m := range modes {
		for _, w := range cfg.Workers {
			run, err := runServeMode(ds, f, wire, dists, traffic, cfg, m.name, m.window, w)
			if err != nil {
				return err
			}
			if m.name == "uncoalesced" {
				uncoalescedNs[w] = run.ElapsedNs
			} else if base := uncoalescedNs[w]; base > 0 && run.ElapsedNs > 0 {
				run.Speedup = float64(base) / float64(run.ElapsedNs)
			}
			report.Runs = append(report.Runs, run)
		}
	}

	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}

// runServeMode measures one (mode, workers) configuration end to end:
// start a server, warm it, drive the closed loop, verify every answer,
// probe the deadline path, drain.
func runServeMode(ds *asrs.Dataset, f *asrs.Composite, wire []server.Query, dists []float64,
	traffic []int, cfg ServeBenchConfig, name string, window time.Duration, workers int) (ServeBenchRun, error) {
	eng, err := asrs.NewEngine(ds, asrs.EngineOptions{
		IndexGranularity: 64,
		Search:           asrs.Options{Workers: workers},
	})
	if err != nil {
		return ServeBenchRun{}, err
	}
	srv, err := server.New(server.Config{
		Engine:     eng,
		Composites: map[string]*asrs.Composite{"poi": f},
		Window:     window,
		MaxBatch:   cfg.MaxBatch,
	})
	if err != nil {
		return ServeBenchRun{}, err
	}
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()
	client := ts.Client()

	// Warm outside the timer: every distinct query once (builds the
	// index, pyramid, slab caches and prepared shapes), then verify the
	// served bits against the engine reference.
	for i, wq := range wire {
		status, wr, err := postQuery(client, ts.URL, wq)
		if err != nil {
			return ServeBenchRun{}, err
		}
		if status != http.StatusOK {
			return ServeBenchRun{}, fmt.Errorf("harness: %s warm query %d: status %d (%s)", name, i, status, wr.Error)
		}
		if math.Float64bits(wr.Results[0].Dist) != math.Float64bits(dists[i]) {
			return ServeBenchRun{}, fmt.Errorf("harness: %s query %d served %v, want %v — serving must be bit-identical to Engine.QueryCtx",
				name, i, wr.Results[0].Dist, dists[i])
		}
	}

	// Deadline probe: a huge-extent query with a 1ms budget must 504
	// while a concurrent normal query still answers bit-identically.
	bounds := ds.Bounds()
	hugeTgt := make([]float64, f.Dims())
	for i := range hugeTgt {
		hugeTgt[i] = 1e6
	}
	doomed := server.Query{Composite: "poi", A: bounds.Width() / 3, B: bounds.Height() / 3, Target: hugeTgt, TimeoutMS: 1}
	var probeWG sync.WaitGroup
	var doomedStatus, peerStatus int
	var peerResp server.Response
	probeWG.Add(2)
	go func() {
		defer probeWG.Done()
		doomedStatus, _, _ = postQuery(client, ts.URL, doomed)
	}()
	go func() {
		defer probeWG.Done()
		peerStatus, peerResp, _ = postQuery(client, ts.URL, wire[0])
	}()
	probeWG.Wait()
	// A 200 is also a legal probe outcome: the kernel deliberately
	// returns a fully determined answer even when the deadline fired a
	// beat before its clean termination, so on a fast machine the
	// huge-extent search can beat the 1ms budget. Anything else is a
	// real failure.
	if doomedStatus != http.StatusGatewayTimeout && doomedStatus != http.StatusOK {
		return ServeBenchRun{}, fmt.Errorf("harness: %s deadline probe: status %d, want 504 (or a completed 200)", name, doomedStatus)
	}
	if peerStatus != http.StatusOK ||
		math.Float64bits(peerResp.Results[0].Dist) != math.Float64bits(dists[0]) {
		return ServeBenchRun{}, fmt.Errorf("harness: %s deadline probe perturbed a concurrent answer (status %d)", name, peerStatus)
	}

	var before serverCounters
	if err := fetchCounters(client, ts.URL, &before); err != nil {
		return ServeBenchRun{}, err
	}

	// The timed closed loop: each client walks its slice of the shared
	// traffic schedule back-to-back.
	var wg sync.WaitGroup
	errCh := make(chan error, cfg.Clients)
	start := time.Now()
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < cfg.PerClient; k++ {
				qi := traffic[c*cfg.PerClient+k]
				status, wr, err := postQueryRetry(client, ts.URL, wire[qi], 3)
				if err != nil {
					errCh <- err
					return
				}
				if status != http.StatusOK {
					errCh <- fmt.Errorf("harness: %s client %d: status %d (%s)", name, c, status, wr.Error)
					return
				}
				if math.Float64bits(wr.Results[0].Dist) != math.Float64bits(dists[qi]) {
					errCh <- fmt.Errorf("harness: %s client %d query %d served %v, want %v",
						name, c, qi, wr.Results[0].Dist, dists[qi])
					return
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errCh:
		return ServeBenchRun{}, err
	default:
	}

	var after serverCounters
	if err := fetchCounters(client, ts.URL, &after); err != nil {
		return ServeBenchRun{}, err
	}

	total := len(traffic)
	run := ServeBenchRun{
		Mode:       name,
		Workers:    workers,
		Requests:   total,
		ElapsedNs:  elapsed.Nanoseconds(),
		NsPerQuery: elapsed.Nanoseconds() / int64(total),
		Batches:    after.Coalescer.Batches - before.Coalescer.Batches,
		DedupHits:  after.Engine.DedupHits - before.Engine.DedupHits,
	}
	if run.ElapsedNs > 0 {
		run.QPS = float64(total) / elapsed.Seconds()
	}
	if run.Batches > 0 {
		run.AvgBatch = float64(after.Coalescer.BatchedRequests-before.Coalescer.BatchedRequests) / float64(run.Batches)
	}
	return run, nil
}

// serverCounters is the slice of /stats the bench reads.
type serverCounters struct {
	Received  int64                 `json:"received"`
	Coalescer server.CoalescerStats `json:"coalescer"`
	Engine    asrs.EngineStats      `json:"engine"`
}

func fetchCounters(client *http.Client, url string, into *serverCounters) error {
	resp, err := client.Get(url + "/stats")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(into)
}
