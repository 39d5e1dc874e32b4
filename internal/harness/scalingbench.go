package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"asrs"
	"asrs/internal/dataset"
)

// ScalingBenchConfig drives the multicore scaling benchmark behind
// BENCH_PR6.json: (a) a strip-evaluator A/B at workers=1 on the warm
// batched workload — the flat prefix-scan mini-sweep against the legacy
// per-point Fenwick evaluator (Options.DisableFlatStrip), the PR's
// acceptance ratio — and (b) the full workers=1..MaxWorkers scaling
// curve on both the batched and the HTTP serve workloads, with host CPU
// metadata recorded so a curve measured on an oversubscribed 1-CPU
// container cannot be mistaken for real multicore scaling. Every
// configuration's answers are verified bit-identical, so the bench
// doubles as a workload-level determinism check across worker counts
// and strip-evaluator selections.
type ScalingBenchConfig struct {
	N       int   // corpus cardinality (default 100000)
	Queries int   // requests per batch (default 24)
	Seed    int64 // corpus + extent seed
	// MaxWorkers tops the 1..MaxWorkers sweep. The default is
	// max(NumCPU, 2): on a single-CPU host the workers=2 point is still
	// measured (the work-stealing superstep path must be exercised and
	// its oversubscription overhead recorded), it just cannot speed
	// anything up.
	MaxWorkers int
	// Clients/PerClient size the serve phase's closed loop (defaults 8
	// and 4 — smaller than ServeBenchConfig's, since the loop runs once
	// per worker count).
	Clients   int
	PerClient int
	// BaselineNs optionally records an externally measured reference
	// ns/query for provenance.
	BaselineNs int64
	Note       string
}

func (c ScalingBenchConfig) normalized() ScalingBenchConfig {
	if c.N <= 0 {
		c.N = 100000
	}
	if c.Queries <= 0 {
		c.Queries = 24
	}
	if c.MaxWorkers <= 0 {
		c.MaxWorkers = runtime.NumCPU()
		if c.MaxWorkers < 2 {
			c.MaxWorkers = 2
		}
	}
	if c.Clients <= 0 {
		c.Clients = 8
	}
	if c.PerClient <= 0 {
		c.PerClient = 4
	}
	return c
}

// ScalingStripRun is one side of the workers=1 strip-evaluator A/B.
type ScalingStripRun struct {
	Mode        string `json:"mode"` // "flat_auto" or "fenwick_only"
	NsPerBatch  int64  `json:"ns_per_batch"`
	NsPerQuery  int64  `json:"ns_per_query"`
	AllocsPerOp int64  `json:"allocs_per_batch"`
	BytesPerOp  int64  `json:"bytes_per_batch"`
}

// ScalingServeRun is one point of the serve workers curve: the serve
// bench's per-run measurements plus a speedup against this curve's own
// workers=1 entry (ServeBenchRun.Speedup is left unset — its
// vs-uncoalesced meaning does not apply here).
type ScalingServeRun struct {
	ServeBenchRun
	SpeedupVsW1 float64 `json:"speedup_vs_workers_1,omitempty"`
}

// ScalingRun is one point of the batched workers curve.
type ScalingRun struct {
	Workers       int     `json:"workers"`
	NsPerBatch    int64   `json:"ns_per_batch"`
	NsPerQuery    int64   `json:"ns_per_query"`
	QueriesPerSec float64 `json:"queries_per_sec"`
	Speedup       float64 `json:"speedup_vs_workers_1,omitempty"`
}

// ScalingReport is the JSON document written to BENCH_PR6.json.
type ScalingReport struct {
	Benchmark  string    `json:"benchmark"`
	Dataset    string    `json:"dataset"`
	N          int       `json:"n"`
	Queries    int       `json:"queries"`
	Seed       int64     `json:"seed"`
	Host       Host      `json:"host"`
	BaselineNs int64     `json:"baseline_ns_per_query,omitempty"`
	Note       string    `json:"note,omitempty"`
	Dists      []float64 `json:"dists"` // per-query answers, identical in every configuration
	// StripAB is the workers=1 flat-vs-Fenwick ablation on the warm
	// batched workload; FlatSpeedupW1 = fenwick_only / flat_auto ns
	// (the PR's ≥1.5× acceptance ratio).
	StripAB       []ScalingStripRun `json:"strip_evaluator_ab_w1"`
	FlatSpeedupW1 float64           `json:"flat_speedup_w1"`
	// BatchedScaling and ServeScaling are the workers=1..N curves.
	BatchedScaling []ScalingRun      `json:"batched_scaling"`
	ServeScaling   []ScalingServeRun `json:"serve_scaling"`
}

// RunScalingBench measures the strip-evaluator A/B and the worker
// scaling curves, and writes the JSON report to out. Any distance
// mismatch between configurations is an error.
func RunScalingBench(out io.Writer, cfg ScalingBenchConfig) error {
	cfg = cfg.normalized()
	ds := dataset.SingaporeScaled(cfg.N, cfg.Seed)
	f, err := asrs.NewComposite(ds.Schema,
		asrs.AggSpec{Kind: asrs.Distribution, Attr: "category"},
		asrs.AggSpec{Kind: asrs.Count},
	)
	if err != nil {
		return err
	}
	reqs, _, err := batchRequests(ds, f, cfg.Queries, cfg.Seed)
	if err != nil {
		return err
	}

	report := ScalingReport{
		Benchmark:  "scaling/singapore",
		Dataset:    "singapore-scaled",
		N:          len(ds.Objects),
		Queries:    len(reqs),
		Seed:       cfg.Seed,
		Host:       CollectHost(),
		BaselineNs: cfg.BaselineNs,
		Note:       cfg.Note,
	}

	engineFor := func(disableFlat bool, workers int) (*asrs.Engine, error) {
		return asrs.NewEngine(ds, asrs.EngineOptions{
			BatchParallelism: 1,
			IndexGranularity: 64,
			Search:           asrs.Options{Workers: workers, DisableFlatStrip: disableFlat},
		})
	}

	// Answer verification across every configuration this bench times:
	// both strip evaluators and every worker count must agree bit for
	// bit.
	var wantDists []float64
	check := func(tag string, resp []asrs.QueryResponse) error {
		for i := range resp {
			if resp[i].Err != nil {
				return fmt.Errorf("harness: %s query %d failed: %v", tag, i, resp[i].Err)
			}
		}
		if wantDists == nil {
			wantDists = make([]float64, len(resp))
			for i := range resp {
				wantDists[i] = resp[i].Results[0].Dist
			}
			return nil
		}
		for i := range resp {
			if math.Float64bits(resp[i].Results[0].Dist) != math.Float64bits(wantDists[i]) {
				return fmt.Errorf("harness: %s query %d answered %v, want %v — answers must be bit-identical across workers and strip evaluators",
					tag, i, resp[i].Results[0].Dist, wantDists[i])
			}
		}
		return nil
	}

	// Phase A: strip-evaluator A/B at workers=1 on the warm batched
	// workload. fenwick_only (DisableFlatStrip) reproduces the pre-flat
	// per-point tree-walk evaluator; flat_auto is the shipped path.
	type stripMode struct {
		name        string
		disableFlat bool
	}
	for _, m := range []stripMode{{"fenwick_only", true}, {"flat_auto", false}} {
		eng, err := engineFor(m.disableFlat, 1)
		if err != nil {
			return err
		}
		var resp []asrs.QueryResponse
		resp = eng.QueryBatch(context.Background(), resp, reqs) // warm caches outside the timer
		if err := check("strip_ab/"+m.name, resp); err != nil {
			return err
		}
		br := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				resp = eng.QueryBatch(context.Background(), resp, reqs)
			}
		})
		report.StripAB = append(report.StripAB, ScalingStripRun{
			Mode:        m.name,
			NsPerBatch:  br.NsPerOp(),
			NsPerQuery:  br.NsPerOp() / int64(len(reqs)),
			AllocsPerOp: br.AllocsPerOp(),
			BytesPerOp:  br.AllocedBytesPerOp(),
		})
	}
	if report.StripAB[1].NsPerBatch > 0 {
		report.FlatSpeedupW1 = float64(report.StripAB[0].NsPerBatch) / float64(report.StripAB[1].NsPerBatch)
	}
	report.Dists = wantDists

	// Phase B: batched scaling curve, workers=1..MaxWorkers on the
	// shipped path.
	var w1Ns int64
	for w := 1; w <= cfg.MaxWorkers; w++ {
		eng, err := engineFor(false, w)
		if err != nil {
			return err
		}
		var resp []asrs.QueryResponse
		resp = eng.QueryBatch(context.Background(), resp, reqs)
		if err := check(fmt.Sprintf("batched/w%d", w), resp); err != nil {
			return err
		}
		br := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				resp = eng.QueryBatch(context.Background(), resp, reqs)
			}
		})
		run := ScalingRun{
			Workers:    w,
			NsPerBatch: br.NsPerOp(),
			NsPerQuery: br.NsPerOp() / int64(len(reqs)),
		}
		if run.NsPerBatch > 0 {
			run.QueriesPerSec = float64(len(reqs)) / (float64(run.NsPerBatch) / 1e9)
		}
		if w == 1 {
			w1Ns = run.NsPerBatch
		}
		if w1Ns > 0 && run.NsPerBatch > 0 {
			run.Speedup = float64(w1Ns) / float64(run.NsPerBatch)
		}
		report.BatchedScaling = append(report.BatchedScaling, run)
	}

	// Phase C: serve scaling curve, workers=1..MaxWorkers through the
	// real HTTP path (coalescing on), reusing the serve bench's closed
	// loop and its bit-identity verification.
	serveCfg := ServeBenchConfig{
		N:         cfg.N,
		Clients:   cfg.Clients,
		PerClient: cfg.PerClient,
		Seed:      cfg.Seed,
	}.normalized()
	wire, serveReqs, err := ServeQueries(ds, f, "poi", serveCfg.Distinct, cfg.Seed)
	if err != nil {
		return err
	}
	refEng, err := asrs.NewEngine(ds, asrs.EngineOptions{IndexGranularity: 64})
	if err != nil {
		return err
	}
	serveDists := make([]float64, len(serveReqs))
	for i, req := range serveReqs {
		resp := refEng.QueryCtx(context.Background(), req)
		if resp.Err != nil {
			return fmt.Errorf("harness: serve reference query %d failed: %v", i, resp.Err)
		}
		serveDists[i] = resp.Results[0].Dist
	}
	// Same Zipf-ish schedule the serve bench uses (80% hot set), seeded
	// identically so the curves are comparable with BENCH_PR5.json.
	total := serveCfg.Clients * serveCfg.PerClient
	traffic := make([]int, total)
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x7aff1c))
	for i := range traffic {
		if rng.Float64() < 0.8 {
			traffic[i] = rng.Intn(serveCfg.Hot)
		} else {
			traffic[i] = serveCfg.Hot + rng.Intn(serveCfg.Distinct-serveCfg.Hot)
		}
	}
	var serveW1 int64
	for w := 1; w <= cfg.MaxWorkers; w++ {
		run, err := runServeMode(ds, f, wire, serveDists, traffic, serveCfg, "coalesced", serveCfg.Window, w)
		if err != nil {
			return err
		}
		if w == 1 {
			serveW1 = run.ElapsedNs
		}
		sr := ScalingServeRun{ServeBenchRun: run}
		if serveW1 > 0 && run.ElapsedNs > 0 {
			sr.SpeedupVsW1 = float64(serveW1) / float64(run.ElapsedNs)
		}
		report.ServeScaling = append(report.ServeScaling, sr)
	}

	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}
