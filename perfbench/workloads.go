package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"asrs"
	"asrs/internal/dataset"
	"asrs/internal/server"
	"asrs/internal/shard"
	"asrs/internal/wire"
)

// opKind is the request type of one operation: the three POST endpoints
// of the daemon.
type opKind int

const (
	opQuery opKind = iota
	opSearch
	opInsert
	numKinds
)

var kindNames = [numKinds]string{"query", "search", "insert"}

// op is one request of a workload's seeded stream. Query and search ops
// index the workload's pool of distinct requests (id), which is also
// the oracle key; insert ops carry their objects in wire and library
// form.
type op struct {
	kind opKind
	id   int
	objs []asrs.Object
	wire []wire.InsertObject
}

// queryCase is one distinct /v1/query request and the engine request
// the oracle answers it with.
type queryCase struct {
	wire wire.Query
	req  asrs.QueryRequest
}

// searchCase is one distinct /v1/search text and the hand-wired struct
// request (own composite, target and weights) it must answer like.
type searchCase struct {
	text string
	// warm is a single-best search over the same expression around the
	// map's centre: the warm-up pass sends it to intern the expression
	// and build its pyramid.
	warm    string
	example asrs.Rect
	req     asrs.QueryRequest
}

// spec fixes one workload: its corpus, request pools, serving
// configuration and traffic.
type spec struct {
	name string
	// n is the default corpus size; tail maps each request kind to the
	// fixed tail percentile reported for it (at least ten samples beyond
	// it at the workload's expected count; README.md lists them).
	n    int
	tail [numKinds]float64
	// main lists the request kinds the workload's timed traffic sends;
	// the other kinds are measured by a short single-client probe after
	// the timed phase, so every end-to-end metric exists on every
	// workload.
	main [numKinds]bool
	// build makes the corpus, the registered composites and the request
	// pools (untimed).
	build func(b *bench) error
	// params describes the workload for the result record.
	params func(b *bench) map[string]any
}

var specs = map[string]*spec{
	"serve-hotset": {
		name: "serve-hotset", n: 50000,
		tail:  [numKinds]float64{95, 75, 75},
		main:  [numKinds]bool{opQuery: true},
		build: buildHotset,
		params: func(b *bench) map[string]any {
			return map[string]any{"dataset": "SingaporeScaled", "n": b.n, "composite": "category",
				"clients": 2, "loop": "closed", "hot": hotSet, "cold": hotCold, "hot_sets": hotSegments,
				"hot_set_requests": hotSegment, "pool": len(b.queries), "hot_share": 0.8,
				"shape_frac": 1.0 / 32, "window_ms": ms(server.DefaultWindow)}
		},
	},
	"search-adhoc": {
		name: "search-adhoc", n: 5000,
		tail:  [numKinds]float64{75, 75, 75},
		main:  [numKinds]bool{opSearch: true},
		build: buildAdhoc,
		params: func(b *bench) map[string]any {
			return map[string]any{"dataset": "POISyn", "n": b.n, "clients": 2, "loop": "closed",
				"top_k": adhocTopK, "lo_universe": adhocLos, "distinct": len(b.searches),
				"shape_frac": adhocFrac, "expr": "c1*sum(visits where visits in [lo,500]) + c2*avg(rating)"}
		},
	},
	"ingest-mixed": {
		name: "ingest-mixed", n: 20000,
		tail:  [numKinds]float64{70, 75, 75},
		main:  [numKinds]bool{opQuery: true, opInsert: true},
		build: buildIngest,
		params: func(b *bench) map[string]any {
			return map[string]any{"dataset": "POIQuant", "n": b.n, "composite": "sum(visits)+avg(rating)",
				"writer": "open loop", "insert_rate_per_s": ingestRate, "objects_per_insert": ingestBatch,
				"preload_inserts": ingestPreload, "reader": "closed loop", "reads": len(b.queries),
				"wal_sync": "always", "compact_at": "default"}
		},
	},
	"shard-extent": {
		name: "shard-extent", n: 20000,
		tail:  [numKinds]float64{95, 75, 75},
		main:  [numKinds]bool{opQuery: true},
		build: buildShard,
		params: func(b *bench) map[string]any {
			return map[string]any{"dataset": "Tweet", "n": b.n, "composite": "day", "shards": 2,
				"policy": "strict", "clients": 2, "loop": "closed", "distinct": len(b.queries),
				"straddling_share": 0.5}
		},
	},
}

// Workload parameters.
const (
	// serve-hotset: 80% of draws hit a hot set of hotSet queries, the
	// rest are uniform over hotCold others. The hot set moves on every
	// hotSegment requests of a client, through hotSegments sets, so a
	// run's medians pool a few hundred hot queries instead of one seed's
	// eight, while at any moment 8 queries carry 80% of the traffic.
	hotSet      = 8
	hotCold     = 24
	hotSegments = 32
	hotSegment  = 16
	adhocTopK   = 4
	adhocFrac   = 0.02
	// adhocPool is the number of distinct (example, lo) searches. The
	// server keeps no per-answer cache on /v1/search, so a repeated text
	// costs what a fresh one does; the pool bounds the oracle's work.
	adhocPool   = 64
	ingestRate  = 16
	ingestBatch = 64
	// ingestPreload is the number of insert requests sent between set-up
	// and the timed phase: 13312 objects, one compaction's worth and
	// 5120 staged, so a 20 s timed phase crosses compactAt again at
	// about 3, 11 and 19 s.
	ingestPreload = 208
	ingestReads   = 8
	// compactAt is asrs's default IngestOptions.CompactAt: staged
	// objects that trigger a background compaction.
	compactAt = 8192
	shardPool = 128
	// Probes cycle through probeQueries / probeSearches fixed requests
	// for probeTime, so a short stall of the shared host lands on a few
	// of many samples; probeInserts inserts are spread over probeTime
	// but stay count-bound, since every one grows the corpus.
	probeQueries  = 32
	probeSearches = 64
	probeInserts  = 256
	probeTime     = 4 * time.Second
	probeTopK     = 2
)

// corpusSeed fixes each workload's corpus and request pools: like the
// paper's datasets and query sets, a workload is one instance, and
// --seed draws the traffic over it (which pooled request each client
// sends when, the hot-set rotation, the inserted objects). Request costs
// are heavy-tailed (a 10-100x range within one pool), so pools drawn
// per seed moved every median by 20-80% from seed to seed and swamped
// any change worth measuring.
const corpusSeed = 1

// adhocLos is the fixed universe of range lower bounds: each value is
// its own inline composite with its own pyramid.
var adhocLos = []float64{0, 25, 50, 75, 100, 125, 150, 175, 200, 225, 250, 275, 300, 325, 350, 375}

// bench is one run of one workload.
type bench struct {
	spec *spec
	cfg  config
	n    int
	// rng draws the request pools. It is seeded with corpusSeed, not
	// --seed: the pools are part of the workload, like its corpus.
	rng *rand.Rand

	ds         *asrs.Dataset
	composites map[string]*asrs.Composite
	names      []string // registered composite names, primary first
	searchExpr string   // expression the search probe uses
	queries    []queryCase
	searches   []searchCase
	sharded    bool
	cut        float64 // shard-extent's x cut between the two slabs
	zorder     []int   // object indices in Z-order (exampleAt)
	walRoot    string  // temp dir holding each setup's WAL (ingest-mixed)
}

func newBench(cfg config) (*bench, error) {
	sp, ok := specs[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	b := &bench{spec: sp, cfg: cfg, n: sp.n, rng: rand.New(rand.NewSource(corpusSeed))}
	if cfg.n > 0 {
		b.n = cfg.n
	}
	if err := sp.build(b); err != nil {
		return nil, err
	}
	if b.searchExpr != "" {
		if err := b.addSearchProbes(); err != nil {
			return nil, err
		}
	}
	if len(b.queries) == 0 {
		if err := b.addQueryProbes(); err != nil {
			return nil, err
		}
	}
	return b, nil
}

func mustComposite(ds *asrs.Dataset, specs ...asrs.AggSpec) *asrs.Composite {
	f, err := asrs.NewComposite(ds.Schema, specs...)
	if err != nil {
		panic(fmt.Sprintf("perfbench: composite: %v", err)) // fixed specs over fixed schemas
	}
	return f
}

// inflated returns an example region's representation inflated
// (⌊1.1·v⌋ + 0.5 per channel), so the example itself is no zero-distance
// answer and every query runs a real search.
func (b *bench) inflated(f *asrs.Composite, ex asrs.Rect) []float64 {
	t := asrs.Represent(b.ds, f, ex)
	for j := range t {
		t[j] = math.Trunc(t[j]*1.1) + 0.5
	}
	return t
}

// window returns the 7a×7b window centred on an a×b example: probes
// search within it, about one windowed search per round.
func window(ex asrs.Rect, a, bb float64) asrs.Rect {
	return asrs.Rect{MinX: ex.MinX - 3*a, MinY: ex.MinY - 3*bb, MaxX: ex.MaxX + 3*a, MaxY: ex.MaxY + 3*bb}
}

// targetQueries builds k distinct plain query-by-example requests with
// inflated targets on one a×b shape.
func (b *bench) targetQueries(name string, k int, a, bb float64) {
	f := b.composites[name]
	bounds := b.ds.Bounds()
	for i := 0; i < k; i++ {
		u, v := b.stratum(i, k)
		cx := bounds.MinX + bounds.Width()*(0.15+0.65*u)
		cy := bounds.MinY + bounds.Height()*(0.15+0.65*v)
		t := b.inflated(f, asrs.Rect{MinX: cx, MinY: cy, MaxX: cx + a, MaxY: cy + bb})
		q, err := asrs.QueryFromTarget(f, t, nil)
		if err != nil {
			panic(fmt.Sprintf("perfbench: target: %v", err))
		}
		b.queries = append(b.queries, queryCase{
			wire: wire.Query{Composite: name, A: a, B: bb, Target: t},
			req:  asrs.QueryRequest{Query: q, A: a, B: bb},
		})
	}
}

// stratum returns point i of k in the unit square: one point per cell of
// the smallest square grid with at least k cells, jittered inside its
// cell, with cells visited in a fixed golden-ratio stride so that any
// run of consecutive points is spread over the whole square.
func (b *bench) stratum(i, k int) (u, v float64) {
	g := int(math.Ceil(math.Sqrt(float64(k))))
	cells := g * g
	c := i * spreadStride(cells) % cells
	return (float64(c%g) + b.rng.Float64()) / float64(g), (float64(c/g) + b.rng.Float64()) / float64(g)
}

// spreadStride returns a stride near n/φ that is coprime with n: i ↦
// i·stride mod n visits every residue once, consecutive i far apart.
func spreadStride(n int) int {
	stride := int(float64(n)*0.618) | 1
	for gcd(stride, n) != 1 {
		stride += 2
	}
	return stride
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// centre returns the a×b region at the centre of the corpus bounds.
func (b *bench) centre(a, bb float64) asrs.Rect {
	bounds := b.ds.Bounds()
	cx, cy := (bounds.MinX+bounds.MaxX)/2, (bounds.MinY+bounds.MaxY)/2
	return asrs.Rect{MinX: cx - a/2, MinY: cy - bb/2, MaxX: cx + a/2, MaxY: cy + bb/2}
}

// exampleAt returns example i of k: an a×b region centred on a corpus
// object, so examples sit where the data is. The objects are taken in
// Z-order (a space-filling curve) at stratified ranks, so k examples
// spread over the map in proportion to its density.
func (b *bench) exampleAt(i, k int, a, bb float64) asrs.Rect {
	if b.zorder == nil {
		b.zorder = zOrder(b.ds)
	}
	u := (float64(i*spreadStride(k)%k) + b.rng.Float64()) / float64(k)
	o := b.ds.Objects[b.zorder[int(u*float64(len(b.zorder)))%len(b.zorder)]]
	return asrs.Rect{MinX: o.Loc.X - a/2, MinY: o.Loc.Y - bb/2, MaxX: o.Loc.X + a/2, MaxY: o.Loc.Y + bb/2}
}

// zOrder returns the corpus object indices sorted by the Morton code of
// their location on a 2^16 grid.
func zOrder(ds *asrs.Dataset) []int {
	bounds := ds.Bounds()
	key := func(o asrs.Object) uint64 {
		x := uint64((o.Loc.X - bounds.MinX) / math.Max(bounds.Width(), 1e-300) * 65535)
		y := uint64((o.Loc.Y - bounds.MinY) / math.Max(bounds.Height(), 1e-300) * 65535)
		var z uint64
		for bit := 0; bit < 16; bit++ {
			z |= (x>>bit&1)<<(2*bit) | (y>>bit&1)<<(2*bit+1)
		}
		return z
	}
	keys := make([]uint64, len(ds.Objects))
	order := make([]int, len(ds.Objects))
	for i, o := range ds.Objects {
		keys[i], order[i] = key(o), i
	}
	sort.Slice(order, func(x, y int) bool { return keys[order[x]] < keys[order[y]] })
	return order
}

func num(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func regionText(r asrs.Rect) string {
	return "region(" + num(r.MinX) + "," + num(r.MinY) + "," + num(r.MaxX) + "," + num(r.MaxY) + ")"
}

func buildHotset(b *bench) error {
	b.ds = dataset.SingaporeScaled(b.n, corpusSeed)
	b.composites = map[string]*asrs.Composite{
		"category": mustComposite(b.ds, asrs.AggSpec{Kind: asrs.Distribution, Attr: "category"}),
	}
	b.names = []string{"category"}
	bounds := b.ds.Bounds()
	b.targetQueries("category", hotCold+hotSet*hotSegments, bounds.Width()/32, bounds.Height()/32)
	b.searchExpr = "@category"
	return nil
}

func buildAdhoc(b *bench) error {
	b.ds = dataset.POISyn(b.n, corpusSeed)
	b.composites = map[string]*asrs.Composite{
		"f2": mustComposite(b.ds, asrs.AggSpec{Kind: asrs.Sum, Attr: "visits"}, asrs.AggSpec{Kind: asrs.Average, Attr: "rating"}),
	}
	b.names = []string{"f2"}
	bounds := b.ds.Bounds()
	a, bb := bounds.Width()*adhocFrac, bounds.Height()*adhocFrac
	visits := b.ds.Schema.Index("visits")
	// The planner orders atoms canonically (avg(rating) before
	// sum(visits …)), so the hand-wired composite and weights follow
	// that channel order.
	comps := make([]*asrs.Composite, len(adhocLos))
	for i, lo := range adhocLos {
		comps[i] = mustComposite(b.ds,
			asrs.AggSpec{Kind: asrs.Average, Attr: "rating"},
			asrs.AggSpec{Kind: asrs.Sum, Attr: "visits", Select: asrs.SelectNumRange(visits, lo, 500)})
	}
	const c1, c2 = 0.02, 1.0
	for i := 0; i < adhocPool; i++ {
		li := i % len(adhocLos)
		ex := b.exampleAt(i, adhocPool, a, bb)
		expr := fmt.Sprintf("%s*sum(visits where visits in [%s,500]) + %s*avg(rating)", num(c1), num(adhocLos[li]), num(c2))
		q, err := asrs.QueryFromTarget(comps[li], asrs.Represent(b.ds, comps[li], ex), []float64{c2, c1})
		if err != nil {
			return err
		}
		b.searches = append(b.searches, searchCase{
			text:    fmt.Sprintf("find top %d similar to %s under %s excluding example", adhocTopK, regionText(ex), expr),
			warm:    fmt.Sprintf("find similar to %s under %s", regionText(b.centre(a, bb)), expr),
			example: ex,
			req:     asrs.QueryRequest{Query: q, A: ex.Width(), B: ex.Height(), TopK: adhocTopK, Exclude: []asrs.Rect{ex}}})
	}
	return nil
}

func buildIngest(b *bench) error {
	b.ds = dataset.POIQuant(b.n, corpusSeed)
	b.composites = map[string]*asrs.Composite{
		"poi": mustComposite(b.ds, asrs.AggSpec{Kind: asrs.Sum, Attr: "visits"}, asrs.AggSpec{Kind: asrs.Average, Attr: "rating"}),
	}
	b.names = []string{"poi"}
	bounds := b.ds.Bounds()
	b.targetQueries("poi", ingestReads, bounds.Width()/32, bounds.Height()/32)
	b.searchExpr = "@poi"
	return nil
}

func buildShard(b *bench) error {
	b.ds = dataset.Tweet(b.n, corpusSeed)
	f := mustComposite(b.ds, asrs.AggSpec{Kind: asrs.Distribution, Attr: "day"})
	b.composites = map[string]*asrs.Composite{"day": f}
	b.names = []string{"day"}
	b.sharded = true
	b.searchExpr = "@day"
	// The router's cuts are the x-quantiles of the seed; recompute the
	// single cut here to place contained and straddling extents.
	cat, err := shard.New(b.ds, shard.Config{Shards: 2, Composites: b.composites, Names: b.names, Lazy: true})
	if err != nil {
		return err
	}
	cut := cat.Cuts()[0]
	b.cut = cut
	bounds := b.ds.Bounds()
	a, bb := bounds.Width()/64, bounds.Height()/64
	ew, eh := bounds.Width()/6, bounds.Height()/3
	for i := 0; i < shardPool; i++ {
		u, v := b.stratum(i/2, shardPool/2)
		var x0 float64
		switch {
		case i%2 == 1: // straddling the cut
			x0 = cut - ew*(0.2+0.6*u)
		case u < 0.5: // contained in the left slab
			x0 = bounds.MinX + (cut-ew-bounds.MinX)*2*u
		default: // contained in the right slab
			x0 = cut + (bounds.MaxX-cut-ew)*(2*u-1)
		}
		y0 := bounds.MinY + (bounds.Height()-eh)*v
		ext := asrs.Rect{MinX: x0, MinY: y0, MaxX: x0 + ew, MaxY: y0 + eh}
		// The example region lies inside the extent; its inflated
		// representation is the target.
		ex := asrs.Rect{MinX: x0 + (ew-a)*b.rng.Float64(), MinY: y0 + (eh-bb)*b.rng.Float64()}
		ex.MaxX, ex.MaxY = ex.MinX+a, ex.MinY+bb
		t := b.inflated(f, ex)
		q, err := asrs.QueryFromTarget(f, t, nil)
		if err != nil {
			return err
		}
		we := wire.RectWire(ext)
		b.queries = append(b.queries, queryCase{
			wire: wire.Query{Composite: "day", A: a, B: bb, Target: t, Extent: &we},
			req:  asrs.QueryRequest{Query: q, A: a, B: bb, Within: &ext},
		})
	}
	return nil
}

// addSearchProbes builds the /v1/search probe pool for workloads whose
// timed traffic sends no searches: top-k query-by-example over the
// primary registered composite, within a window of 7a×7b around the
// example so a probe costs about one windowed search per round.
func (b *bench) addSearchProbes() error {
	f := b.composites[b.names[0]]
	bounds := b.ds.Bounds()
	a, bb := bounds.Width()/32, bounds.Height()/32
	if b.sharded {
		a, bb = bounds.Width()/64, bounds.Height()/64
	}
	for i := 0; i < probeSearches; i++ {
		ex := b.exampleAt(i, probeSearches, a, bb)
		win := window(ex, a, bb)
		q, err := asrs.QueryFromTarget(f, asrs.Represent(b.ds, f, ex), nil)
		if err != nil {
			return err
		}
		b.searches = append(b.searches, searchCase{
			text: fmt.Sprintf("find top %d similar to %s under %s within %s excluding example",
				probeTopK, regionText(ex), b.searchExpr, regionText(win)),
			warm:    fmt.Sprintf("find similar to %s under %s", regionText(b.centre(a, bb)), b.searchExpr),
			example: ex,
			req: asrs.QueryRequest{Query: q, A: ex.Width(), B: ex.Height(), TopK: probeTopK,
				Exclude: []asrs.Rect{ex}, Within: &win},
		})
	}
	return nil
}

// addQueryProbes builds the /v1/query probe pool for workloads whose
// timed traffic sends no struct queries: query-by-example targets at
// stratified example regions, each within a window of 7a×7b around its
// example (the single-engine windowed path), so a probe costs about one
// windowed search.
func (b *bench) addQueryProbes() error {
	f := b.composites[b.names[0]]
	bounds := b.ds.Bounds()
	a, bb := bounds.Width()/32, bounds.Height()/32
	for i := 0; i < probeQueries; i++ {
		ex := b.exampleAt(i, probeQueries, a, bb)
		win := window(ex, a, bb)
		t := b.inflated(f, ex)
		q, err := asrs.QueryFromTarget(f, t, nil)
		if err != nil {
			return err
		}
		ww := wire.RectWire(win)
		b.queries = append(b.queries, queryCase{
			wire: wire.Query{Composite: b.names[0], A: a, B: bb, Target: t, Extent: &ww},
			req:  asrs.QueryRequest{Query: q, A: a, B: bb, Within: &win},
		})
	}
	return nil
}

// insertBatch draws one insert request: ingestBatch objects placed near
// random corpus objects, each carrying an existing object's values (so
// channel certificates of the seed corpus keep holding).
func (b *bench) insertBatch(rng *rand.Rand) op {
	bounds := b.ds.Bounds()
	schema := b.ds.Schema
	o := op{kind: opInsert, objs: make([]asrs.Object, ingestBatch), wire: make([]wire.InsertObject, ingestBatch)}
	for i := range o.objs {
		src := b.ds.Objects[rng.Intn(len(b.ds.Objects))]
		loc := asrs.Point{
			X: src.Loc.X + bounds.Width()*1e-3*(rng.Float64()-0.5),
			Y: src.Loc.Y + bounds.Height()*1e-3*(rng.Float64()-0.5),
		}
		vals := append([]asrs.Value(nil), src.Values...)
		wv := make(map[string]any, schema.Len())
		for j := 0; j < schema.Len(); j++ {
			at := schema.At(j)
			if at.Kind == asrs.Categorical {
				wv[at.Name] = at.Domain[vals[j].Cat]
			} else {
				wv[at.Name] = vals[j].Num
			}
		}
		o.objs[i] = asrs.Object{Loc: loc, Values: vals}
		o.wire[i] = wire.InsertObject{X: loc.X, Y: loc.Y, Values: wv}
	}
	return o
}

// stack is one running serving stack: engine or shard router behind
// server.New on a loopback listener.
type stack struct {
	eng    *asrs.Engine
	cat    *shard.Catalog
	router *shard.Router
	srv    *server.Server
	ts     *httptest.Server
	client *http.Client
	url    string
	walDir string
	// acked lists every acknowledged inserted object in WAL order.
	acked []asrs.Object
}

func (s *stack) close() error {
	s.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if s.eng != nil {
		if cerr := s.eng.Close(); err == nil {
			err = cerr
		}
	}
	if s.cat != nil {
		if cerr := s.cat.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

func engineOptions(walDir string) asrs.EngineOptions {
	return asrs.EngineOptions{
		IndexGranularity: 64,
		Search:           asrs.Options{Workers: 0}, // GOMAXPROCS
		Ingest:           asrs.IngestOptions{WALDir: walDir, Sync: asrs.SyncAlways},
	}
}

// serve builds the serving stack over the generated corpus: the timed
// part of set-up. It returns once /readyz answers 200 and the warm-up
// pass has touched every request shape.
func (b *bench) serve(setup int) (*stack, error) {
	st := &stack{}
	scfg := server.Config{
		Composites:  b.composites,
		Window:      server.DefaultWindow,
		MaxBatch:    server.DefaultMaxBatch,
		MaxInFlight: server.DefaultMaxInFlight,
		Timeout:     server.DefaultTimeout,
	}
	if b.spec.main[opInsert] {
		st.walDir = filepath.Join(b.walRoot, "wal-"+strconv.Itoa(setup))
		if err := os.MkdirAll(st.walDir, 0o755); err != nil {
			return nil, err
		}
	}
	var err error
	if b.sharded {
		st.cat, err = shard.New(b.ds, shard.Config{Shards: 2, Engine: engineOptions(""), Composites: b.composites, Names: b.names})
		if err != nil {
			return nil, err
		}
		if err := st.cat.WarmAll(); err != nil {
			return nil, err
		}
		st.router = shard.NewRouter(st.cat, shard.RouterOptions{})
		scfg.Router = st.router
	} else {
		st.eng, err = asrs.NewEngine(b.ds, engineOptions(st.walDir))
		if err != nil {
			return nil, err
		}
		for _, name := range b.names {
			if err := st.eng.Warm(b.composites[name]); err != nil {
				return nil, err
			}
		}
		scfg.Engine = st.eng
	}
	st.srv, err = server.New(scfg)
	if err != nil {
		return nil, err
	}
	st.ts = httptest.NewServer(st.srv.Handler())
	st.url = st.ts.URL
	st.client = &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2},
		Timeout:   2 * time.Minute,
	}
	if err := waitReady(st); err != nil {
		st.close()
		return nil, err
	}
	if err := b.warmup(st); err != nil {
		st.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return st, nil
}

func waitReady(st *stack) error {
	for i := 0; i < 1000; i++ {
		resp, err := st.client.Get(st.url + "/readyz")
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("/readyz never turned ready")
}

// warmup first-touches every request shape the timed phase and the
// probes send: one /v1/query per (composite, a, b) shape and one
// single-best search per search expression. The warm-up queries target
// the map's centre and carry no extent, so set-up costs the same
// whatever the seed.
func (b *bench) warmup(st *stack) error {
	type shape struct {
		f    string
		a, b float64
	}
	shapes := map[shape]bool{}
	for _, q := range b.queries {
		s := shape{q.wire.Composite, q.wire.A, q.wire.B}
		if shapes[s] {
			continue
		}
		shapes[s] = true
		warm := wire.Query{Composite: s.f, A: s.a, B: s.b, Target: b.inflated(b.composites[s.f], b.centre(s.a, s.b))}
		if r := doQuery(st, warm); !r.ok {
			return fmt.Errorf("query %+v: %s", s, r.err)
		}
	}
	seen := map[*asrs.Composite]bool{}
	for _, sc := range b.searches {
		if seen[sc.req.Query.F] {
			continue
		}
		seen[sc.req.Query.F] = true
		if r := doSearch(st, sc.warm); !r.ok {
			return fmt.Errorf("search %q: %s", sc.warm, r.err)
		}
	}
	return nil
}

// preload sends ingest-mixed's ingestPreload inserts and one read that
// folds them in, after set-up and before the timed phase. It is not
// set-up: it shapes the staged volume so compactions land in the timed
// phase, and every request shape is already warm.
func (b *bench) preload(st *stack) error {
	rng := rand.New(rand.NewSource(b.cfg.seed ^ 0x9e10ad))
	for i := 0; i < ingestPreload; i++ {
		o := b.insertBatch(rng)
		if r := doInsert(st, o); !r.ok {
			return fmt.Errorf("preload insert %d: %s", i, r.err)
		}
		st.acked = append(st.acked, o.objs...)
	}
	settleCompaction(st)
	if r := doQuery(st, b.queries[0].wire); !r.ok {
		return fmt.Errorf("post-preload query: %s", r.err)
	}
	return nil
}
