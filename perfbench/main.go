// Command perfbench is the serving stack's benchmark: it generates a
// workload's corpus and request streams from a seed, serves them through
// server.New on a loopback listener, measures the end-to-end metrics
// from the client side, checks every answer against an oracle, and
// (with --trace 1) replays the stream through each layer's public
// functions to report per-layer metrics. README.md in this directory
// describes the workloads and metrics.
//
//	bash perfbench/run.sh --workload serve-hotset --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is the result:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}.
// The line before it is the run's record (host, parameters, sample
// counts, counters). A failed correctness gate exits with status 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"asrs"
	"asrs/internal/server"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	n        int
	out      string
	// corruptOracle flips one bit of the first oracle answer: the smoke
	// test uses it to prove the correctness gate trips.
	corruptOracle bool
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	var cfg config
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.workload, "workload", "", "workload: serve-hotset, search-adhoc, ingest-mixed or shard-extent")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed for the corpus and every request stream")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "length of the timed phase")
	fs.IntVar(&trace, "trace", 0, "1 replays the stream through each layer and reports per-layer metrics")
	fs.IntVar(&cfg.n, "n", 0, "corpus size (0 = the workload's size)")
	fs.StringVar(&cfg.out, "out", ".bench_build/spans", "directory for span files and temporary WAL directories")
	fs.BoolVar(&cfg.corruptOracle, "corrupt-oracle", false, "flip one oracle answer bit (gate self-test)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace == 1
	if cfg.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	res, rec, err := runBench(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	recLine, err := json.Marshal(rec)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: encoding the record:", err)
		return 1
	}
	resLine, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: encoding the result:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", recLine, resLine)
	if !res.Correct {
		fmt.Fprintln(stderr, "perfbench: correctness gate failed:", rec["failures"])
		return 1
	}
	return 0
}

// numSetups is the number of set-ups per run; setup_s is their median.
const numSetups = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runBench runs one workload end to end: untimed corpus and pool
// generation, numSetups timed set-ups, the timed phase, probes, the
// optional traced replay, and the correctness gate.
func runBench(cfg config) (result, map[string]any, error) {
	b, err := newBench(cfg)
	if err != nil {
		return result{}, nil, err
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return result{}, nil, err
	}
	if b.spec.main[opInsert] {
		if b.walRoot, err = os.MkdirTemp(cfg.out, "wal-"); err != nil {
			return result{}, nil, err
		}
		defer os.RemoveAll(b.walRoot)
	}

	// Set-up, several times; the last stack serves the timed phase.
	var (
		st     *stack
		setups []float64
	)
	for i := 0; i < numSetups; i++ {
		runtime.GC()
		t0 := time.Now()
		s, err := b.serve(i)
		if err != nil {
			return result{}, nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < numSetups-1 {
			if err := s.close(); err != nil {
				return result{}, nil, err
			}
			continue
		}
		st = s
	}
	closed := false
	defer func() {
		if !closed {
			st.close()
		}
	}()
	if b.spec.main[opInsert] {
		if err := b.preload(st); err != nil {
			return result{}, nil, err
		}
	}

	// Timed phase.
	before, err := fetchStats(st)
	if err != nil {
		return result{}, nil, err
	}
	// Every timed pass starts from a collected heap, so garbage left by
	// set-up or the previous pass does not land on it.
	runtime.GC()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	heap := startHeapSampler()
	samples, elapsed := b.phase(st, time.Duration(cfg.seconds*float64(time.Second)), nil, nil)
	heapPeak := heap.finish()
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(live)
	gcPause := ms(time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs))
	heapLive := float64(live[0].Value.Uint64()) / (1 << 20)
	after, err := fetchStats(st)
	if err != nil {
		return result{}, nil, err
	}

	var layers map[string]metric
	var traceRec map[string]any
	if cfg.trace {
		layers, traceRec, err = b.traced(st, samples, before, after)
		if err != nil {
			return result{}, nil, fmt.Errorf("traced run: %w", err)
		}
		layers["runtime.gc_pause_ms"] = metric{gcPause, "ms"}
		layers["runtime.heap_live_mib"] = metric{heapLive, "MiB"}
	}

	// Probes for the request kinds the timed traffic lacks, after the
	// traced replay (which may insert). Inserts go last: they change the
	// corpus the other answers are checked on.
	probeElapsed := map[opKind]time.Duration{}
	if b.spec.main[opInsert] {
		// Probes measure the settled corpus: no compaction running, the
		// last inserts folded in.
		settleCompaction(st)
		if r := doQuery(st, b.queries[0].wire); !r.ok {
			return result{}, nil, fmt.Errorf("settling read: %s", r.err)
		}
	}
	for _, k := range []opKind{opQuery, opSearch, opInsert} {
		if b.spec.main[k] {
			continue
		}
		runtime.GC()
		ps, d := b.probe(st, k)
		samples = append(samples, ps...)
		probeElapsed[k] = d
	}

	// Correctness gate, after the timed phase.
	g := b.gate(st, samples)
	closed = true
	if err := st.close(); err != nil {
		g.fail("closing the stack: %v", err)
	}
	if b.spec.main[opInsert] {
		b.reopenCheck(st, &g)
	}

	res := result{Correct: g.failed == 0, Metrics: map[string]metric{}}
	res.Attempted = int64(len(samples) + g.extraAttempts)
	res.Failed = int64(g.failed)
	counts := b.endToEnd(res.Metrics, samples, g.pass, elapsed, probeElapsed)
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Metrics["heap_peak_mib"] = metric{heapPeak, "MiB"}
	if cfg.trace {
		res.Metrics = layers
	}

	var late []float64
	for _, s := range samples {
		if s.kind == opInsert && !s.probe {
			late = append(late, ms(s.late))
		}
	}
	rec := map[string]any{
		"record":        "perfbench",
		"workload":      b.spec.name,
		"seed":          cfg.seed,
		"seconds":       cfg.seconds,
		"trace":         cfg.trace,
		"params":        b.spec.params(b),
		"host":          hostInfo(),
		"tail_pct":      map[string]float64{"query": b.spec.tail[opQuery], "search": b.spec.tail[opSearch], "insert": b.spec.tail[opInsert]},
		"samples":       counts,
		"probed":        probedKinds(b.spec),
		"setups_s":      setups,
		"elapsed_s":     elapsed.Seconds(),
		"fail_ratio":    float64(res.Failed) / math.Max(1, float64(res.Attempted)),
		"failures":      g.failures,
		"stats_delta":   statsDelta(before, after),
		"gc_pause_ms":   gcPause,
		"heap_live_mib": heapLive,
	}
	if g.settledReadMS > 0 {
		rec["settled_read_p50_ms"] = g.settledReadMS
	}
	if len(late) > 0 {
		rec["generator_late_ms"] = map[string]float64{"p50": quantile(late, 0.5), "max": quantile(late, 1)}
	}
	if traceRec != nil {
		rec["trace"] = traceRec
	}
	return res, rec, nil
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

func probedKinds(sp *spec) []string {
	var out []string
	for k := opKind(0); k < numKinds; k++ {
		if !sp.main[k] {
			out = append(out, kindNames[k])
		}
	}
	return out
}

// endToEnd fills the end-to-end metrics from the verified samples and
// returns the sample counts behind them.
func (b *bench) endToEnd(m map[string]metric, samples []sample, pass []bool, elapsed time.Duration, probeElapsed map[opKind]time.Duration) map[string]int {
	var lat, ttfr [numKinds][]float64
	for i, s := range samples {
		if pass[i] {
			lat[s.kind] = append(lat[s.kind], ms(s.r.lat))
			ttfr[s.kind] = append(ttfr[s.kind], ms(s.r.ttfr))
		}
	}
	// A kind with no verified sample (a failed run) reads 0, which JSON
	// can carry where NaN cannot.
	q := func(xs []float64, p float64) float64 { return zeroNaN(quantile(xs, p)) }
	tail := func(k opKind) float64 { return q(lat[k], b.spec.tail[k]/100) }
	qd := elapsed
	if d, ok := probeElapsed[opQuery]; ok {
		qd = d
	}
	m["query_p50_ms"] = metric{q(lat[opQuery], 0.5), "ms"}
	m["query_tail_ms"] = metric{tail(opQuery), "ms"}
	m["query_qps"] = metric{float64(len(lat[opQuery])) / qd.Seconds(), "1/s"}
	m["search_ttfr_p50_ms"] = metric{q(ttfr[opSearch], 0.5), "ms"}
	m["search_total_p50_ms"] = metric{q(lat[opSearch], 0.5), "ms"}
	m["search_total_tail_ms"] = metric{tail(opSearch), "ms"}
	m["insert_ack_p50_ms"] = metric{q(lat[opInsert], 0.5), "ms"}
	m["insert_ack_tail_ms"] = metric{tail(opInsert), "ms"}
	counts := map[string]int{}
	for k := opKind(0); k < numKinds; k++ {
		counts[kindNames[k]] = len(lat[k])
	}
	return counts
}

func fetchStats(st *stack) (server.Stats, error) {
	var s server.Stats
	resp, err := st.client.Get(st.url + "/stats")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("/stats: status %d", resp.StatusCode)
	}
	return s, json.NewDecoder(resp.Body).Decode(&s)
}

// engineTotals sums the engine counters of a single-engine server or of
// every loaded shard.
func engineTotals(s server.Stats) asrs.EngineStats {
	if s.Shards == nil {
		return s.Engine
	}
	var t asrs.EngineStats
	for _, sh := range s.Shards.Shards {
		if e := sh.Engine; e != nil {
			t.Queries += e.Queries
			t.DedupHits += e.DedupHits
			t.PreparedShared += e.PreparedShared
			t.Pyramids += e.Pyramids
			t.Indexes += e.Indexes
			t.PyramidFolds += e.PyramidFolds
			t.Compactions += e.Compactions
			t.Ingested += e.Ingested
		}
	}
	return t
}

func statsDelta(a, z server.Stats) map[string]any {
	ea, ez := engineTotals(a), engineTotals(z)
	return map[string]any{
		"received":         z.Received - a.Received,
		"shed":             z.Shed - a.Shed,
		"timeouts":         z.Timeouts - a.Timeouts,
		"batches":          z.Coalescer.Batches - a.Coalescer.Batches,
		"batched_requests": z.Coalescer.BatchedRequests - a.Coalescer.BatchedRequests,
		"engine_queries":   ez.Queries - ea.Queries,
		"dedup_hits":       ez.DedupHits - ea.DedupHits,
		"prepared_shared":  ez.PreparedShared - ea.PreparedShared,
		"pyramid_folds":    ez.PyramidFolds - ea.PyramidFolds,
		"compactions":      ez.Compactions - ea.Compactions,
		"pyramids":         ez.Pyramids,
	}
}

// hostInfo records where the numbers were measured.
func hostInfo() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"commit":     gitCommit(),
	}
}

// gitCommit reads HEAD from the checkout's .git directory, or returns
// "unknown" outside a git work tree.
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	name, ok := strings.CutPrefix(ref, "ref: ")
	if !ok {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(name))); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(packed), "\n") {
		if f := strings.Fields(l); len(f) == 2 && f[1] == name {
			return f[0]
		}
	}
	return "unknown"
}
