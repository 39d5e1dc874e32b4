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

// BatchBenchConfig drives the batched-serving benchmark behind
// BENCH_PR4.json: a batch of overlapping Singapore-extent
// query-by-example requests answered (a) one query at a time through
// the PR-3-equivalent path (pyramid and batch grouping disabled) and
// (b) through the cross-query-amortized path (persistent per-composite
// pyramid + batch grouping + shared per-worker scratch). Per-query
// answer distances must be bit-identical between the modes, across the
// worker sweep, and with grouping on or off — the bench doubles as the
// acceptance check for the amortization layer.
type BatchBenchConfig struct {
	N       int   // corpus cardinality (default 100000)
	Queries int   // requests per batch (default 24)
	Seed    int64 // corpus + extent seed
	Workers []int // kernel worker sweep (default 1,2)
	// BaselineNs optionally records an externally measured reference
	// ns/query for provenance.
	BaselineNs int64
	Note       string
}

func (c BatchBenchConfig) normalized() BatchBenchConfig {
	if c.N <= 0 {
		c.N = 100000
	}
	if c.Queries <= 0 {
		c.Queries = 24
	}
	if len(c.Workers) == 0 {
		c.Workers = []int{1, 2}
	}
	return c
}

// BatchBenchRun is one measured (mode, workers) configuration.
type BatchBenchRun struct {
	Mode          string  `json:"mode"` // "pr3_per_query" or "batched"
	Workers       int     `json:"workers"`
	NsPerBatch    int64   `json:"ns_per_batch"`
	NsPerQuery    int64   `json:"ns_per_query"`
	QueriesPerSec float64 `json:"queries_per_sec"`
	AllocsPerOp   int64   `json:"allocs_per_batch"`
	BytesPerOp    int64   `json:"bytes_per_batch"`
	// Speedup is this run's throughput over the pr3_per_query run at
	// workers=1 (the acceptance ratio).
	Speedup float64 `json:"speedup_vs_pr3_w1,omitempty"`
}

// BatchBenchReport is the JSON document written to BENCH_PR4.json.
type BatchBenchReport struct {
	Benchmark  string          `json:"benchmark"`
	Dataset    string          `json:"dataset"`
	N          int             `json:"n"`
	Queries    int             `json:"queries"`
	Duplicates int             `json:"duplicate_requests"`
	Seed       int64           `json:"seed"`
	GoMaxProcs int             `json:"gomaxprocs"`
	NumCPU     int             `json:"num_cpu"`
	Host       Host            `json:"host"`
	BaselineNs int64           `json:"baseline_ns_per_query,omitempty"`
	Note       string          `json:"note,omitempty"`
	Dists      []float64       `json:"dists"` // per-query answers, identical in every run
	Runs       []BatchBenchRun `json:"runs"`
}

// batchRequests builds the overlapping-extent request set: query-by-
// example regions clustered around the case study's district band, all
// sharing one (a, b) shape, with a handful of exact repeats (popular
// queries) that exercise the dedup pass.
func batchRequests(ds *asrs.Dataset, f *asrs.Composite, k int, seed int64) ([]asrs.QueryRequest, int, error) {
	// District-scale extents (Orchard is ~1/31 of the city span).
	bounds := ds.Bounds()
	a := bounds.Width() / 32
	b := bounds.Height() / 32
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	reqs := make([]asrs.QueryRequest, k)
	dups := 0
	for i := range reqs {
		if i > 0 && i%3 == 2 {
			// Serving batches are Zipf-ish: popular queries repeat (a third
			// of the batch here). The dedup pass answers each distinct
			// request once and copies the response.
			reqs[i] = reqs[rng.Intn(i)]
			dups++
			continue
		}
		cx := bounds.MinX + bounds.Width()*(0.15+0.65*rng.Float64())
		cy := bounds.MinY + bounds.Height()*(0.15+0.65*rng.Float64())
		rq := asrs.Rect{MinX: cx, MinY: cy, MaxX: cx + a, MaxY: cy + b}
		q, err := asrs.QueryFromRegion(ds, f, nil, rq)
		if err != nil {
			return nil, 0, err
		}
		// Inflate the example's representation into a "what if this area
		// were 30% denser" virtual target (§3.3): the query region itself
		// is no longer a zero-distance answer, so every request runs a
		// real search instead of instantly rediscovering its example.
		for j := range q.Target {
			q.Target[j] = math.Trunc(q.Target[j]*1.1) + 0.5
		}
		reqs[i] = asrs.QueryRequest{Query: q, A: a, B: b}
	}
	return reqs, dups, nil
}

// RunBatchBench benchmarks the batched path against the per-query path
// and writes the JSON report to out. Any distance mismatch between
// configurations is an error.
func RunBatchBench(out io.Writer, cfg BatchBenchConfig) error {
	cfg = cfg.normalized()
	ds := dataset.SingaporeScaled(cfg.N, cfg.Seed)
	f, err := asrs.NewComposite(ds.Schema,
		asrs.AggSpec{Kind: asrs.Distribution, Attr: "category"},
		asrs.AggSpec{Kind: asrs.Count},
	)
	if err != nil {
		return err
	}
	reqs, dups, err := batchRequests(ds, f, cfg.Queries, cfg.Seed)
	if err != nil {
		return err
	}

	type mode struct {
		name string
		opt  asrs.EngineOptions
	}
	engineFor := func(m mode, workers int) (*asrs.Engine, error) {
		opt := m.opt
		opt.BatchParallelism = 1  // compare pure per-query cost at equal CPU
		opt.IndexGranularity = 64 // the serving shape: GI-DS in both modes
		opt.Search.Workers = workers
		return asrs.NewEngine(ds, opt)
	}
	modes := []mode{
		{"pr3_per_query", asrs.EngineOptions{DisablePyramid: true, DisableBatchGrouping: true}},
		{"batched", asrs.EngineOptions{}},
	}

	report := BatchBenchReport{
		Benchmark:  "engine-batch/singapore",
		Dataset:    "singapore-scaled",
		N:          len(ds.Objects),
		Queries:    len(reqs),
		Duplicates: dups,
		Seed:       cfg.Seed,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Host:       CollectHost(),
		BaselineNs: cfg.BaselineNs,
		Note:       cfg.Note,
	}

	// Answer verification: every mode, every worker count, plus the
	// grouping-off ablation, must produce bit-identical per-query
	// distances.
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
				return fmt.Errorf("harness: %s query %d answered %v, want %v — batched answers must be bit-identical",
					tag, i, resp[i].Results[0].Dist, wantDists[i])
			}
		}
		return nil
	}
	for _, m := range append(modes, mode{"pyramid_ungrouped", asrs.EngineOptions{DisableBatchGrouping: true}}) {
		for _, w := range cfg.Workers {
			eng, err := engineFor(m, w)
			if err != nil {
				return err
			}
			if err := check(fmt.Sprintf("%s/w%d", m.name, w), eng.QueryBatch(context.Background(), nil, reqs)); err != nil {
				return err
			}
		}
	}
	report.Dists = wantDists

	var pr3W1 int64
	for _, m := range modes {
		for _, w := range cfg.Workers {
			eng, err := engineFor(m, w)
			if err != nil {
				return err
			}
			var resp []asrs.QueryResponse
			resp = eng.QueryBatch(context.Background(), resp, reqs) // warm caches outside the timer
			br := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					resp = eng.QueryBatch(context.Background(), resp, reqs)
				}
			})
			run := BatchBenchRun{
				Mode:        m.name,
				Workers:     w,
				NsPerBatch:  br.NsPerOp(),
				NsPerQuery:  br.NsPerOp() / int64(len(reqs)),
				AllocsPerOp: br.AllocsPerOp(),
				BytesPerOp:  br.AllocedBytesPerOp(),
			}
			if run.NsPerBatch > 0 {
				run.QueriesPerSec = float64(len(reqs)) / (float64(run.NsPerBatch) / 1e9)
			}
			if m.name == "pr3_per_query" && w == 1 {
				pr3W1 = run.NsPerBatch
			}
			report.Runs = append(report.Runs, run)
		}
	}
	if pr3W1 > 0 {
		for i := range report.Runs {
			if report.Runs[i].NsPerBatch > 0 {
				report.Runs[i].Speedup = float64(pr3W1) / float64(report.Runs[i].NsPerBatch)
			}
		}
	}

	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}
