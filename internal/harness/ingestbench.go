package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"asrs"
	"asrs/internal/dataset"
)

// IngestBenchConfig drives the streaming-ingest benchmark behind
// BENCH_PR8.json: a seed corpus plus a stream of durable inserts,
// measuring (a) ingest throughput per WAL sync policy, (b) the query
// cost of serving over a staged delta versus a static corpus —
// including the first query after an insert, which pays the epoch's
// pyramid fold — and (c) boot-time recovery replay of the full WAL.
// Every staged/recovered answer is checked bit-identical to a
// from-scratch engine over seed ++ inserts, so the bench doubles as an
// acceptance check for the ingest path (DESIGN.md §10).
type IngestBenchConfig struct {
	N       int   // seed corpus cardinality (default 20000)
	Inserts int   // objects streamed in after boot (default 4000)
	Batch   int   // objects per InsertBatch (default 64)
	Queries int   // requests in the query mix (default 12)
	Seed    int64 // corpus + stream seed
	// BaselineNs optionally records an externally measured reference
	// ns/query for provenance.
	BaselineNs int64
	Note       string
}

func (c IngestBenchConfig) normalized() IngestBenchConfig {
	if c.N <= 0 {
		c.N = 20000
	}
	if c.Inserts <= 0 {
		c.Inserts = 4000
	}
	if c.Batch <= 0 {
		c.Batch = 64
	}
	if c.Queries <= 0 {
		c.Queries = 12
	}
	return c
}

// IngestRun is one measured WAL sync policy.
type IngestRun struct {
	Sync          string  `json:"sync"` // "always", "never"
	Objects       int     `json:"objects"`
	Batches       int     `json:"batches"`
	NsPerObject   int64   `json:"ns_per_object"`
	ObjectsPerSec float64 `json:"objects_per_sec"`
	WALBytes      int64   `json:"wal_bytes"`
}

// QueryRun is one measured serving mode.
type QueryRun struct {
	// Mode is "base_only" (static seed corpus), "staged_steady"
	// (Inserts objects staged, epoch view already materialized),
	// "staged_first_after_insert" (each measured query is the first
	// after an InsertBatch, so it pays the delta fold), or
	// "combined_rebuilt" (static engine over seed ++ inserts — the
	// restart-instead-of-ingest alternative).
	Mode         string `json:"mode"`
	NsPerQuery   int64  `json:"ns_per_query"`
	PyramidFolds int64  `json:"pyramid_folds,omitempty"`
}

// RecoveryRun measures boot-time WAL replay.
type RecoveryRun struct {
	ObjectsReplayed int     `json:"objects_replayed"`
	ReplayMs        float64 `json:"replay_ms"`
	ObjectsPerSec   float64 `json:"objects_per_sec"`
	WALBytes        int64   `json:"wal_bytes"`
}

// IngestBenchReport is the JSON document written to BENCH_PR8.json.
type IngestBenchReport struct {
	Benchmark  string      `json:"benchmark"`
	Dataset    string      `json:"dataset"`
	N          int         `json:"n"`
	Inserts    int         `json:"inserts"`
	Batch      int         `json:"batch"`
	Queries    int         `json:"queries"`
	Seed       int64       `json:"seed"`
	GoMaxProcs int         `json:"gomaxprocs"`
	NumCPU     int         `json:"num_cpu"`
	Host       Host        `json:"host"`
	BaselineNs int64       `json:"baseline_ns_per_query,omitempty"`
	Note       string      `json:"note,omitempty"`
	Dists      []float64   `json:"dists"` // per-query answers, identical in every staged/recovered mode
	IngestRuns []IngestRun `json:"ingest_runs"`
	QueryRuns  []QueryRun  `json:"query_runs"`
	Recovery   RecoveryRun `json:"recovery"`
}

// ingestRequests builds a mixed query workload over the POISyn extent:
// hand-crafted targets (the "virtual region" usage) at district-ish
// scales, so the answers depend on the ingested tail and the same
// requests are valid against every engine in the comparison.
func ingestRequests(f *asrs.Composite, bounds asrs.Rect, k int) []asrs.QueryRequest {
	reqs := make([]asrs.QueryRequest, 0, k)
	for i := 0; len(reqs) < k; i++ {
		scale := 0.05 + 0.02*float64(i%6)
		target := make([]float64, f.Dims())
		target[0] = 40 + 35*float64(i%7) // Sum(visits) channel
		target[len(target)-1] = 2.5      // Average(rating) tail
		reqs = append(reqs, asrs.QueryRequest{
			Query: asrs.Query{F: f, Target: target},
			A:     bounds.Width() * scale,
			B:     bounds.Height() * scale,
		})
	}
	return reqs
}

func dirBytes(dir string) int64 {
	var total int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if info, err := d.Info(); err == nil {
			total += info.Size()
		}
		return nil
	})
	return total
}

// RunIngestBench benchmarks the streaming-ingest path and writes the
// JSON report to out. Any distance mismatch between a staged or
// recovered engine and the from-scratch rebuild is an error.
func RunIngestBench(out io.Writer, cfg IngestBenchConfig) error {
	cfg = cfg.normalized()
	seedDS := dataset.POIQuant(cfg.N, cfg.Seed)
	pool := dataset.POIQuant(cfg.Inserts, cfg.Seed+1).Objects
	f, err := asrs.NewComposite(seedDS.Schema,
		asrs.AggSpec{Kind: asrs.Sum, Attr: "visits"},
		asrs.AggSpec{Kind: asrs.Average, Attr: "rating"},
	)
	if err != nil {
		return err
	}
	reqs := ingestRequests(f, seedDS.Bounds(), cfg.Queries)

	report := IngestBenchReport{
		Benchmark:  "engine-ingest/poiquant",
		Dataset:    "poiquant",
		N:          cfg.N,
		Inserts:    cfg.Inserts,
		Batch:      cfg.Batch,
		Queries:    cfg.Queries,
		Seed:       cfg.Seed,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Host:       CollectHost(),
		BaselineNs: cfg.BaselineNs,
		Note:       cfg.Note,
	}

	ingestAll := func(eng *asrs.Engine) (int, error) {
		batches := 0
		for lo := 0; lo < len(pool); lo += cfg.Batch {
			hi := lo + cfg.Batch
			if hi > len(pool) {
				hi = len(pool)
			}
			if err := eng.InsertBatch(pool[lo:hi]); err != nil {
				return batches, err
			}
			batches++
		}
		return batches, nil
	}

	// --- (a) ingest throughput per sync policy. One timed pass each:
	// ingest mutates durable state, so the pass cannot repeat under
	// testing.Benchmark; wall time over Inserts objects is the figure.
	// The SyncAlways directory is kept (uncompacted) for the recovery
	// measurement below.
	var recoverDir string
	policies := []struct {
		name string
		sync asrs.SyncPolicy
	}{{"always", asrs.SyncAlways}, {"never", asrs.SyncNever}}
	for _, p := range policies {
		dir, err := os.MkdirTemp("", "asrs-ingestbench-"+p.name+"-*")
		if err != nil {
			return err
		}
		eng, err := asrs.NewEngine(seedDS, asrs.EngineOptions{
			Ingest: asrs.IngestOptions{WALDir: dir, Sync: p.sync, CompactAt: -1},
		})
		if err != nil {
			return err
		}
		start := time.Now()
		batches, err := ingestAll(eng)
		elapsed := time.Since(start)
		if err != nil {
			return fmt.Errorf("harness: ingest (%s): %w", p.name, err)
		}
		if err := eng.Close(); err != nil {
			return err
		}
		run := IngestRun{
			Sync:        p.name,
			Objects:     len(pool),
			Batches:     batches,
			NsPerObject: elapsed.Nanoseconds() / int64(len(pool)),
			WALBytes:    dirBytes(dir),
		}
		if elapsed > 0 {
			run.ObjectsPerSec = float64(len(pool)) / elapsed.Seconds()
		}
		report.IngestRuns = append(report.IngestRuns, run)
		if p.name == "always" {
			recoverDir = dir
		} else {
			os.RemoveAll(dir)
		}
	}
	defer os.RemoveAll(recoverDir)

	// --- answer verification: staged delta vs from-scratch rebuild,
	// bit for bit, before anything is timed.
	oracle, err := asrs.NewEngine(combinedPOISyn(seedDS, pool), asrs.EngineOptions{})
	if err != nil {
		return err
	}
	staged, err := asrs.NewEngine(seedDS, asrs.EngineOptions{})
	if err != nil {
		return err
	}
	if _, err := ingestAll(staged); err != nil {
		return fmt.Errorf("harness: memory-only ingest: %w", err)
	}
	report.Dists = make([]float64, len(reqs))
	for i, req := range reqs {
		want := oracle.QueryCtx(context.Background(), req)
		got := staged.QueryCtx(context.Background(), req)
		if want.Err != nil || got.Err != nil {
			return fmt.Errorf("harness: query %d failed: oracle %v, staged %v", i, want.Err, got.Err)
		}
		if math.Float64bits(got.Results[0].Dist) != math.Float64bits(want.Results[0].Dist) {
			return fmt.Errorf("harness: query %d: staged answered %v, want %v — delta fold must be exact",
				i, got.Results[0].Dist, want.Results[0].Dist)
		}
		report.Dists[i] = want.Results[0].Dist
	}

	// --- (b) query cost by serving mode.
	queryBench := func(eng *asrs.Engine) int64 {
		br := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if resp := eng.QueryCtx(context.Background(), reqs[i%len(reqs)]); resp.Err != nil {
					b.Fatal(resp.Err)
				}
			}
		})
		return br.NsPerOp()
	}
	base, err := asrs.NewEngine(seedDS, asrs.EngineOptions{})
	if err != nil {
		return err
	}
	report.QueryRuns = append(report.QueryRuns,
		QueryRun{Mode: "base_only", NsPerQuery: queryBench(base)},
		QueryRun{Mode: "staged_steady", NsPerQuery: queryBench(staged),
			PyramidFolds: staged.Stats().PyramidFolds},
		QueryRun{Mode: "combined_rebuilt", NsPerQuery: queryBench(oracle)},
	)
	// First query after an insert pays the epoch's pyramid fold (or a
	// full rebuild when the fold gate refuses): alternate insert/query
	// so every measured query materializes a fresh epoch view.
	epoch, err := asrs.NewEngine(seedDS, asrs.EngineOptions{})
	if err != nil {
		return err
	}
	var foldTotal time.Duration
	epochs := 0
	for lo := 0; lo < len(pool); lo += cfg.Batch {
		hi := lo + cfg.Batch
		if hi > len(pool) {
			hi = len(pool)
		}
		if err := epoch.InsertBatch(pool[lo:hi]); err != nil {
			return err
		}
		start := time.Now()
		if resp := epoch.QueryCtx(context.Background(), reqs[epochs%len(reqs)]); resp.Err != nil {
			return resp.Err
		}
		foldTotal += time.Since(start)
		epochs++
	}
	report.QueryRuns = append(report.QueryRuns, QueryRun{
		Mode:         "staged_first_after_insert",
		NsPerQuery:   foldTotal.Nanoseconds() / int64(epochs),
		PyramidFolds: epoch.Stats().PyramidFolds,
	})

	// --- (c) recovery: boot a fresh engine over the SyncAlways WAL and
	// time the replay; the recovered engine must hold every ingested
	// object and answer bit-identically.
	report.Recovery.WALBytes = dirBytes(recoverDir)
	start := time.Now()
	rec, err := asrs.NewEngine(seedDS, asrs.EngineOptions{
		Ingest: asrs.IngestOptions{WALDir: recoverDir, Sync: asrs.SyncAlways, CompactAt: -1},
	})
	replay := time.Since(start)
	if err != nil {
		return fmt.Errorf("harness: recovery replay: %w", err)
	}
	recovered := rec.IngestedObjects()
	if len(recovered) != len(pool) {
		return fmt.Errorf("harness: recovery replayed %d objects, want %d", len(recovered), len(pool))
	}
	for i, req := range reqs {
		got := rec.QueryCtx(context.Background(), req)
		if got.Err != nil {
			return got.Err
		}
		if math.Float64bits(got.Results[0].Dist) != math.Float64bits(report.Dists[i]) {
			return fmt.Errorf("harness: query %d post-recovery answered %v, want %v",
				i, got.Results[0].Dist, report.Dists[i])
		}
	}
	if err := rec.Close(); err != nil {
		return err
	}
	report.Recovery.ObjectsReplayed = len(recovered)
	report.Recovery.ReplayMs = float64(replay.Nanoseconds()) / 1e6
	if replay > 0 {
		report.Recovery.ObjectsPerSec = float64(len(recovered)) / replay.Seconds()
	}

	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}

// combinedPOISyn is the logical post-ingest corpus: seed ++ pool.
func combinedPOISyn(ds *asrs.Dataset, tail []asrs.Object) *asrs.Dataset {
	objs := make([]asrs.Object, 0, len(ds.Objects)+len(tail))
	objs = append(objs, ds.Objects...)
	objs = append(objs, tail...)
	return &asrs.Dataset{Schema: ds.Schema, Objects: objs}
}
