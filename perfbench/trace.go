package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"asrs"
	"asrs/internal/dssearch"
	"asrs/internal/persist"
	"asrs/internal/query"
	"asrs/internal/server"
	"asrs/internal/shard"
	"asrs/internal/wal"
)

// The traced run replays the untraced run's request streams (same
// seeds, same two clients, the same number of requests per client,
// within the same time budget). For every request it times the HTTP
// round trip, then makes the calls the layer below would make through
// that layer's public function, and so on down: the coalescer, the
// engine, the shard router, the query planner and stream, the grid
// index and the DS-Search front doors, the WAL and the snapshot writer.
// Each call is a span. A child replays its parent's work one layer
// down right after the parent returns, so its interval follows the
// parent's instead of lying inside it; a span's self time is therefore
// its duration minus the durations of its children.

type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

// do runs fn as span name under parent, records it, and returns the
// span's id; the caller replays the layer below afterwards, under that
// id.
func (t *tracer) do(req, parent int64, name string, fn func()) int64 {
	id := t.next.Add(1)
	start := time.Now()
	fn()
	end := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
	return id
}

// counters accumulates the work counts the replayed calls return.
type counters struct {
	mu            sync.Mutex
	searches      int
	ds            dssearch.Stats
	cells         int
	cellsSearched int
	fanout        int
	routed        int
	parse         []float64 // µs
	firstRound    []float64 // ms
	laterRounds   []float64 // ms
	walBytes      int
	walObjects    int
	errs          []string
}

func (c *counters) addSearch(st dssearch.Stats) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.searches++
	d := &c.ds
	d.Discretizations += st.Discretizations
	d.SATFills += st.SATFills
	d.DirtyCells += st.DirtyCells
	d.PrunedCells += st.PrunedCells
	d.RefinedCells += st.RefinedCells
	d.RefinePruned += st.RefinePruned
	d.CenterProbes += st.CenterProbes
	d.HeapPushes += st.HeapPushes
	d.Steals += st.Steals
	d.MiniSweeps += st.MiniSweeps
	d.MiniSweepRects += st.MiniSweepRects
	d.FlatStrips += st.FlatStrips
	d.FenwickStrips += st.FenwickStrips
	d.MaxHeapSize = max(d.MaxHeapSize, st.MaxHeapSize)
}

func (c *counters) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.errs) < 8 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

// replayer holds the bench-side instances of each layer the traced run
// calls into.
type replayer struct {
	b    *bench
	st   *stack
	t    *tracer
	c    *counters
	coal *server.Coalescer
	// planner compiles /v1/search texts as the server's planner does.
	planner *query.Planner
	// merged answers the routed requests as one engine (shard-extent).
	merged *asrs.Engine
	// shadow mirrors the ingest engine (same seed, same inserts, its own
	// WAL) so a replayed read pays the epoch fold and index rebuild the
	// served read paid; foldBase and foldLen chain the replayed delta
	// folds; log and snapDir take the replayed WAL appends and snapshots.
	shadow   *asrs.Engine
	mu       sync.Mutex
	acked    []asrs.Object
	foldBase *asrs.Pyramid
	foldLen  int
	log      *wal.Log
	snapDir  string
	inserts  int
}

// traced runs the traced replay and returns the per-layer metrics and a
// record of the trace (span file, counts, replay errors).
func (b *bench) traced(st *stack, untraced []sample, before, after server.Stats) (map[string]metric, map[string]any, error) {
	r := &replayer{b: b, st: st, t: &tracer{t0: time.Now()}, c: &counters{}}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	defer func() {
		if r.log != nil {
			r.log.Close()
		}
		if r.shadow != nil {
			r.shadow.Close()
		}
		if r.snapDir != "" {
			os.RemoveAll(r.snapDir)
		}
	}()
	if err := r.prepare(ctx); err != nil {
		return nil, nil, err
	}

	// The same number of requests per client as the untraced run.
	limit := make([]int, 2)
	for _, s := range untraced {
		if !s.probe {
			limit[s.client]++
		}
	}
	var reqID atomic.Int64
	traced, _ := b.phase(st, time.Duration(b.cfg.seconds*float64(time.Second)), limit,
		func(o op, send func() reply) reply {
			return r.request(ctx, reqID.Add(1), o, send)
		})
	// The probed searches too, once each, so the query layer is traced
	// on engine-mode workloads whose own traffic sends no /v1/search.
	if !b.spec.main[opSearch] && st.eng != nil {
		for id := range b.searches {
			o := op{kind: opSearch, id: id}
			r.request(ctx, reqID.Add(1), o, func() reply { return b.send(st, o) })
		}
	}
	if r.coal != nil {
		r.coal.Close()
	}

	m := r.metrics(untraced, traced, before, after)
	path := filepath.Join(b.cfg.out, fmt.Sprintf("%s-seed%d-spans.jsonl", b.spec.name, b.cfg.seed))
	if err := writeSpans(path, r.t.spans); err != nil {
		return nil, nil, err
	}
	rec := map[string]any{"spans_file": path, "spans": len(r.t.spans), "requests": len(traced),
		"replay_errors": r.c.errs, "searches_replayed": r.c.searches}
	if len(r.c.errs) > 0 {
		return nil, rec, fmt.Errorf("replayed calls failed: %v", r.c.errs)
	}
	return m, rec, nil
}

// prepare builds the bench-side layer instances (untimed): planner plans
// with their pyramids resident, the merged engine, the ingest shadow.
// It also times one pyramid build per composite the traffic uses.
func (r *replayer) prepare(ctx context.Context) error {
	b := r.b
	if r.st.eng != nil && !b.spec.main[opInsert] {
		r.coal = server.NewCoalescer(ctx, r.st.eng, server.DefaultWindow, server.DefaultMaxBatch)
	}
	r.planner = query.NewPlanner(b.ds.Schema, b.composites)
	var comps []*asrs.Composite
	if b.spec.main[opSearch] {
		seen := map[*asrs.Composite]bool{}
		for _, sc := range b.searches {
			pl, err := r.planner.ParseAndPlan(sc.text)
			if err != nil {
				return err
			}
			if !seen[pl.Comp] {
				seen[pl.Comp] = true
				comps = append(comps, pl.Comp)
				if err := r.st.eng.Warm(pl.Comp); err != nil {
					return err
				}
			}
		}
	} else {
		comps = append(comps, b.composites[b.names[0]])
	}
	for _, f := range comps {
		if b.sharded {
			for _, sh := range r.st.cat.Shards() {
				if err := r.timedBuild(sh.Seed(), f); err != nil {
					return err
				}
			}
			continue
		}
		if err := r.timedBuild(b.ds, f); err != nil {
			return err
		}
	}
	if b.sharded {
		var err error
		if r.merged, err = asrs.NewEngine(b.ds, engineOptions("")); err != nil {
			return err
		}
		if err := r.merged.Warm(b.composites[b.names[0]]); err != nil {
			return err
		}
	}
	if b.spec.main[opInsert] {
		return r.prepareIngest()
	}
	return nil
}

func (r *replayer) timedBuild(ds *asrs.Dataset, f *asrs.Composite) error {
	var err error
	r.t.do(0, 0, "engine.pyramid_build", func() { _, err = asrs.BuildPyramid(ds, f) })
	return err
}

// prepareIngest brings the shadow engine, the fold chain and the
// bench-side WAL level with the served engine: same seed, same
// acknowledged inserts.
func (r *replayer) prepareIngest() error {
	b := r.b
	var err error
	r.snapDir, err = os.MkdirTemp(b.cfg.out, "trace-")
	if err != nil {
		return err
	}
	if r.shadow, err = asrs.NewEngine(b.ds, engineOptions(filepath.Join(r.snapDir, "shadow"))); err != nil {
		return err
	}
	f := b.composites[b.names[0]]
	if err := r.shadow.Warm(f); err != nil {
		return err
	}
	r.acked = append([]asrs.Object(nil), r.st.acked...)
	if err := r.shadow.InsertBatch(r.acked); err != nil {
		return err
	}
	if resp := r.shadow.QueryCtx(context.Background(), b.queries[0].req); resp.Err != nil {
		return resp.Err
	}
	base, err := asrs.BuildPyramid(b.ds, f)
	if err != nil {
		return err
	}
	ds := r.combined()
	if r.foldBase, _, err = dssearch.BuildPyramidDelta(base, ds); err != nil {
		return err
	}
	r.foldLen = len(r.acked)
	r.log, err = wal.Open(filepath.Join(r.snapDir, "wal"), wal.Options{Sync: wal.SyncNever}, func(uint64, []byte) error { return nil })
	return err
}

func (r *replayer) combined() *asrs.Dataset {
	objs := make([]asrs.Object, 0, len(r.b.ds.Objects)+len(r.acked))
	objs = append(append(objs, r.b.ds.Objects...), r.acked...)
	return &asrs.Dataset{Schema: r.b.ds.Schema, Objects: objs}
}

// request traces one request: the HTTP round trip as the root span,
// then the replays one layer down.
func (r *replayer) request(ctx context.Context, req int64, o op, send func() reply) reply {
	var rep reply
	root := r.t.do(req, 0, "server", func() { rep = send() })
	if !rep.ok {
		return rep
	}
	switch o.kind {
	case opQuery:
		r.query(ctx, req, root, o.id)
	case opSearch:
		r.search(ctx, req, root, o.id)
	case opInsert:
		r.insert(req, root, o)
	}
	return rep
}

func (r *replayer) query(ctx context.Context, req, root int64, id int) {
	q := r.b.queries[id].req
	switch {
	case r.b.sharded:
		var resp shard.Response
		sid := r.t.do(req, root, "shard", func() {
			resp = r.st.router.Query(ctx, shard.Request{Query: q.Query, A: q.A, B: q.B, Extent: q.Within})
		})
		if resp.Err != nil {
			r.c.fail("router: %v", resp.Err)
			return
		}
		r.c.mu.Lock()
		r.c.routed++
		r.c.fanout += len(resp.Coverage.Searched)
		r.c.mu.Unlock()
		r.engineQuery(ctx, req, sid, r.merged, q)
	case r.shadow != nil:
		r.engineQuery(ctx, req, root, r.shadow, q)
	default:
		var resp asrs.QueryResponse
		cid := r.t.do(req, root, "server.coalesce", func() { resp = <-r.coal.Submit(q) })
		if resp.Err != nil {
			r.c.fail("coalescer: %v", resp.Err)
			return
		}
		r.engineQuery(ctx, req, cid, r.st.eng, q)
	}
}

// engineQuery replays Engine.QueryCtx and, one layer down, the search
// front door the engine runs for the request.
func (r *replayer) engineQuery(ctx context.Context, req, parent int64, eng *asrs.Engine, q asrs.QueryRequest) {
	var resp asrs.QueryResponse
	eid := r.t.do(req, parent, "engine", func() { resp = eng.QueryCtx(ctx, q) })
	if resp.Err != nil {
		r.c.fail("engine: %v", resp.Err)
		return
	}
	if r.shadow != nil {
		r.epochWork(req, eid)
	}
	f := q.Query.F
	ds := eng.CurrentDataset()
	p, err := eng.Pyramid(f)
	if err != nil {
		r.c.fail("pyramid: %v", err)
		return
	}
	opt := asrs.Options{Pyramid: p}
	var (
		st  asrs.SearchStats
		ist asrs.IndexStats
	)
	idx, err := eng.Index(f)
	if err != nil {
		r.c.fail("index: %v", err)
		return
	}
	did := r.t.do(req, eid, "dssearch", func() {
		if q.Within != nil {
			_, _, st, err = asrs.SearchWithin(ds, q.A, q.B, q.Query, *q.Within, nil, opt)
		} else {
			_, _, ist, err = asrs.SearchWithIndex(idx, ds, q.A, q.B, q.Query, opt)
			st = ist.DS
		}
	})
	if err != nil {
		r.c.fail("search: %v", err)
		return
	}
	r.c.addSearch(st)
	r.c.mu.Lock()
	r.c.cells += ist.Cells
	r.c.cellsSearched += ist.CellsSearched
	r.c.mu.Unlock()
	r.t.do(req, did, "dssearch.prepare", func() { p.Prepare(q.A, q.B) })
}

// epochWork replays the per-epoch work a read after inserts pays: the
// pyramid delta fold and the grid-index rebuild over the new epoch.
func (r *replayer) epochWork(req, parent int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.acked) == r.foldLen {
		return
	}
	ds := r.combined()
	f := r.b.composites[r.b.names[0]]
	var (
		p   *asrs.Pyramid
		err error
	)
	r.t.do(req, parent, "engine.fold", func() { p, _, err = dssearch.BuildPyramidDelta(r.foldBase, ds) })
	if err != nil {
		r.c.fail("fold: %v", err)
		return
	}
	r.foldBase, r.foldLen = p, len(r.acked)
	r.t.do(req, parent, "gridindex.build", func() { _, err = asrs.NewIndex(ds, f, 64, 64) })
	if err != nil {
		r.c.fail("index build: %v", err)
	}
}

// search replays one /v1/search: parse and plan plus every lazy stream
// round as the query span, then each round's engine call, and the first
// round's search front door (the one that returns DS-Search
// statistics).
func (r *replayer) search(ctx context.Context, req, root int64, id int) {
	sc := r.b.searches[id]
	var (
		pl   *query.Plan
		rows []query.Row
		err  error
	)
	var parse, first time.Duration
	var later []time.Duration
	qid := r.t.do(req, root, "query", func() {
		t0 := time.Now()
		if pl, err = r.planner.ParseAndPlan(sc.text); err != nil {
			return
		}
		parse = time.Since(t0)
		var stream *query.Stream
		if stream, err = query.Exec(ctx, pl, query.EngineBinding{E: r.st.eng}); err != nil {
			return
		}
		for {
			t := time.Now()
			row, ok := stream.Next()
			if !ok {
				break
			}
			if len(rows) == 0 {
				first = time.Since(t)
			} else {
				later = append(later, time.Since(t))
			}
			rows = append(rows, row)
		}
		err = stream.Err()
	})
	if err != nil {
		r.c.fail("query: %v", err)
		return
	}
	r.c.mu.Lock()
	r.c.parse = append(r.c.parse, float64(parse.Nanoseconds())/1e3)
	r.c.firstRound = append(r.c.firstRound, ms(first))
	for _, d := range later {
		r.c.laterRounds = append(r.c.laterRounds, ms(d))
	}
	r.c.mu.Unlock()

	base, err := pl.Request(r.st.eng.CurrentDataset())
	if err != nil {
		r.c.fail("request: %v", err)
		return
	}
	excl := append([]asrs.Rect(nil), base.Exclude...)
	for i, row := range rows {
		rq := base
		rq.TopK = 0
		rq.Exclude = append([]asrs.Rect(nil), excl...)
		excl = append(excl, row.Region)
		var resp asrs.QueryResponse
		eid := r.t.do(req, qid, "engine", func() { resp = r.st.eng.QueryCtx(ctx, rq) })
		if resp.Err != nil {
			r.c.fail("engine round: %v", resp.Err)
			return
		}
		if i > 0 {
			continue
		}
		p, err := r.st.eng.Pyramid(rq.Query.F)
		if err != nil {
			r.c.fail("pyramid: %v", err)
			return
		}
		var st asrs.SearchStats
		did := r.t.do(req, eid, "dssearch", func() {
			ds, opt := r.st.eng.CurrentDataset(), asrs.Options{Pyramid: p}
			if rq.Within != nil {
				_, _, st, err = asrs.SearchWithin(ds, rq.A, rq.B, rq.Query, *rq.Within, rq.Exclude, opt)
			} else {
				_, _, st, err = asrs.SearchExcluding(ds, rq.A, rq.B, rq.Query, sc.example, opt)
			}
		})
		if err != nil {
			r.c.fail("search excluding: %v", err)
			return
		}
		r.c.addSearch(st)
		r.t.do(req, did, "dssearch.prepare", func() { p.Prepare(rq.A, rq.B) })
	}
}

// insert replays one acknowledged insert: the shadow engine's
// InsertBatch, and below it the WAL append and fsync of the same
// payload; every 32nd insert also writes an ingest snapshot of every
// object so far, the work a compaction does.
func (r *replayer) insert(req, root int64, o op) {
	r.mu.Lock()
	r.acked = append(r.acked, o.objs...)
	r.inserts++
	snapshot := r.inserts%32 == 0
	objs := r.acked
	r.mu.Unlock()
	var err error
	eid := r.t.do(req, root, "engine.insert", func() { err = r.shadow.InsertBatch(o.objs) })
	if err != nil {
		r.c.fail("insert: %v", err)
		return
	}
	payload := persist.EncodeObjects(r.b.ds.Schema, o.objs)
	var lsn uint64
	r.t.do(req, eid, "wal.append", func() { lsn, err = r.log.Append(payload) })
	if err != nil {
		r.c.fail("wal append: %v", err)
		return
	}
	r.t.do(req, eid, "wal.sync", func() { err = r.log.Sync() })
	if err != nil {
		r.c.fail("wal sync: %v", err)
		return
	}
	r.c.mu.Lock()
	r.c.walBytes += len(payload)
	r.c.walObjects += len(o.objs)
	r.c.mu.Unlock()
	if snapshot {
		r.t.do(req, eid, "persist.snapshot", func() {
			err = persist.SaveIngestSnapshot(filepath.Join(r.snapDir, "ingest.snap"), r.b.ds.Schema, objs, lsn)
		})
		if err != nil {
			r.c.fail("snapshot: %v", err)
		}
	}
}

// metrics reduces the spans and counters to the per-layer metrics.
func (r *replayer) metrics(untraced, traced []sample, before, after server.Stats) map[string]metric {
	byID := map[int64]span{}
	children := map[int64][]span{}
	byName := map[string][]span{}
	for _, s := range r.t.spans {
		byID[s.ID] = s
		children[s.Parent] = append(children[s.Parent], s)
		byName[s.Name] = append(byName[s.Name], s)
	}
	self := func(s span) time.Duration {
		d := s.dur()
		for _, c := range children[s.ID] {
			d -= c.dur()
		}
		return max(d, 0)
	}
	durs := func(name string, unit time.Duration) []float64 {
		var out []float64
		for _, s := range byName[name] {
			out = append(out, float64(s.dur())/float64(unit))
		}
		return out
	}
	med := func(xs []float64) float64 { return zeroNaN(quantile(xs, 0.5)) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	// server.self: the round trip minus the span below it (engine,
	// query, shard or engine.insert); under the coalescer, minus the
	// engine call below that, as the coalescer's wait belongs to the
	// server layer.
	var serverSelf, coalWait []float64
	var selfSum, rootSum time.Duration
	for _, root := range byName["server"] {
		var below time.Duration
		for _, c := range children[root.ID] {
			switch c.Name {
			case "server.coalesce":
				coalWait = append(coalWait, ms(self(c)))
				for _, e := range children[c.ID] {
					below += e.dur()
				}
			default:
				below += c.dur()
			}
		}
		serverSelf = append(serverSelf, ms(max(root.dur()-below, 0)))
		rootSum += root.dur()
		var walk func(s span)
		walk = func(s span) {
			selfSum += self(s)
			for _, c := range children[s.ID] {
				walk(c)
			}
		}
		walk(root)
	}

	planner := float64(r.planner.InternedComposites())
	// Engines start with no pyramid, so the pyramids resident when the
	// timed phase starts are the ones set-up built.
	ea, ez := engineTotals(before), engineTotals(after)
	dq := float64(ez.Queries - ea.Queries)
	d := r.c.ds
	searches := float64(r.c.searches)
	m := map[string]metric{
		"server.self_ms":          {med(serverSelf), "ms"},
		"server.coalesce_wait_ms": {med(coalWait), "ms"},
		"server.batch_width": {ratio(float64(after.Coalescer.BatchedRequests-before.Coalescer.BatchedRequests),
			float64(after.Coalescer.Batches-before.Coalescer.Batches)), "count"},
		"server.shed":                    {float64(after.Shed - before.Shed), "count"},
		"query.parse_plan_us":            {med(r.c.parse), "us"},
		"query.first_round_ms":           {med(r.c.firstRound), "ms"},
		"query.later_round_ms":           {med(r.c.laterRounds), "ms"},
		"query.interned":                 {planner, "count"},
		"engine.query_ms":                {med(durs("engine", time.Millisecond)), "ms"},
		"engine.dedup_ratio":             {ratio(float64(ez.DedupHits-ea.DedupHits), dq), "ratio"},
		"engine.prepared_shared_ratio":   {ratio(float64(ez.PreparedShared-ea.PreparedShared), dq), "ratio"},
		"engine.pyramid_builds":          {float64(ea.Pyramids), "count"},
		"engine.pyramid_build_ms":        {med(durs("engine.pyramid_build", time.Millisecond)), "ms"},
		"engine.resident_pyramids":       {float64(ez.Pyramids), "count"},
		"engine.folds":                   {float64(ez.PyramidFolds - ea.PyramidFolds), "count"},
		"engine.fold_ms":                 {med(durs("engine.fold", time.Millisecond)), "ms"},
		"engine.insert_ms":               {med(durs("engine.insert", time.Millisecond)), "ms"},
		"engine.compactions":             {float64(ez.Compactions - ea.Compactions), "count"},
		"gridindex.build_ms":             {med(durs("gridindex.build", time.Millisecond)), "ms"},
		"gridindex.cells_searched_ratio": {ratio(float64(r.c.cellsSearched), float64(r.c.cells)), "ratio"},
		"dssearch.search_ms":             {med(durs("dssearch", time.Millisecond)), "ms"},
		"dssearch.prepare_us":            {med(durs("dssearch.prepare", time.Microsecond)), "us"},
		"dssearch.discretizations":       {ratio(float64(d.Discretizations), searches), "count"},
		"dssearch.sat_fill_ratio":        {ratio(float64(d.SATFills), float64(d.Discretizations)), "ratio"},
		"dssearch.prune_ratio":           {ratio(float64(d.PrunedCells), float64(d.DirtyCells)), "ratio"},
		"dssearch.refine_prune_ratio":    {ratio(float64(d.RefinePruned), float64(d.RefinedCells)), "ratio"},
		"dssearch.center_probes":         {ratio(float64(d.CenterProbes), searches), "count"},
		"kernel.heap_pushes":             {ratio(float64(d.HeapPushes), searches), "count"},
		"kernel.max_heap":                {float64(d.MaxHeapSize), "count"},
		"kernel.steals":                  {ratio(float64(d.Steals), searches), "count"},
		"sweep.mini_sweeps":              {ratio(float64(d.MiniSweeps), searches), "count"},
		"sweep.rects_per_sweep":          {ratio(float64(d.MiniSweepRects), float64(d.MiniSweeps)), "count"},
		"sweep.flat_strip_share":         {ratio(float64(d.FlatStrips), float64(d.FlatStrips+d.FenwickStrips)), "ratio"},
		"shard.route_ms":                 {med(durs("shard", time.Millisecond)), "ms"},
		"shard.fanout":                   {ratio(float64(r.c.fanout), float64(r.c.routed)), "count"},
		"wal.append_us":                  {med(durs("wal.append", time.Microsecond)), "us"},
		"wal.sync_us":                    {med(durs("wal.sync", time.Microsecond)), "us"},
		"wal.bytes_per_object":           {ratio(float64(r.c.walBytes), float64(r.c.walObjects)), "B"},
		"persist.snapshot_ms":            {med(durs("persist.snapshot", time.Millisecond)), "ms"},
		"trace.self_gap_ratio":           {ratio(float64(selfSum-rootSum), float64(rootSum)), "ratio"},
	}
	var mergedEngine []float64
	for _, s := range byName["engine"] {
		if p, ok := byID[s.Parent]; ok && p.Name == "shard" {
			mergedEngine = append(mergedEngine, ms(s.dur()))
		}
	}
	m["shard.overhead_ratio"] = metric{ratio(m["shard.route_ms"].Value, med(mergedEngine)), "ratio"}

	// Tracing overhead: the traced round trips against the untraced
	// ones, for the workload's main request kind.
	kind := opQuery
	if r.b.spec.main[opSearch] {
		kind = opSearch
	}
	rtt := func(ss []sample) float64 {
		var xs []float64
		for _, s := range ss {
			if s.kind == kind && !s.probe && s.r.ok {
				xs = append(xs, ms(s.r.lat))
			}
		}
		return med(xs)
	}
	m["trace.overhead_ms"] = metric{rtt(traced) - rtt(untraced), "ms"}
	return m
}

func zeroNaN(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
