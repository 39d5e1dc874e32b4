package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"asrs"
	"asrs/internal/asp"
	"asrs/internal/wire"
)

// gateResult is the correctness verdict: pass[i] says whether sample i
// answered and matched its oracle; failed counts every failed check,
// including the checks that are not samples (final read set, reopen).
type gateResult struct {
	pass          []bool
	failed        int
	extraAttempts int
	failures      []string
	// settledReadMS is ingest-mixed's median final-read latency.
	settledReadMS float64
}

func (g *gateResult) fail(format string, args ...any) {
	g.failed++
	if len(g.failures) < 8 {
		g.failures = append(g.failures, fmt.Sprintf(format, args...))
	}
}

// oracleKey identifies one distinct request of a workload.
type oracleKey struct {
	kind opKind
	id   int
}

// oracleAnswer is the oracle's answer to one distinct request.
type oracleAnswer struct {
	res []wire.Result
	err error
}

// answerAll answers every key on the oracle engine, two requests at a
// time. Search targets are recomputed over the oracle's corpus, as the
// server computes an example's target over its current corpus. corrupt
// flips one bit of the first key's first distance.
func (b *bench) answerAll(eng *asrs.Engine, keys []oracleKey, corrupt bool) map[oracleKey]oracleAnswer {
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].kind != keys[j].kind {
			return keys[i].kind < keys[j].kind
		}
		return keys[i].id < keys[j].id
	})
	out := make(map[oracleKey]oracleAnswer, len(keys))
	var mu sync.Mutex
	var wg sync.WaitGroup
	next := make(chan oracleKey)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				var req asrs.QueryRequest
				if k.kind == opSearch {
					sc := b.searches[k.id]
					req = sc.req
					t := asrs.Represent(eng.Dataset(), req.Query.F, sc.example)
					req.Query.Target = t
				} else {
					req = b.queries[k.id].req
				}
				resp := eng.QueryCtx(context.Background(), req)
				a := oracleAnswer{err: resp.Err}
				if resp.Err == nil {
					a.res = wire.ResponseWire(resp, 0).Results
				}
				mu.Lock()
				out[k] = a
				mu.Unlock()
			}
		}()
	}
	for _, k := range keys {
		next <- k
	}
	close(next)
	wg.Wait()
	if corrupt && len(keys) > 0 && len(out[keys[0]].res) > 0 {
		r := out[keys[0]].res[0]
		r.Dist = math.Float64frombits(math.Float64bits(r.Dist) ^ 1)
		out[keys[0]].res[0] = r
	}
	return out
}

// mismatch compares a served answer with the oracle's and describes the
// first difference ("" when they agree). Every answer must be
// Float64bits-identical — region, point, distance, representation —
// except that a shard router may return a different region of equal
// distance where an extent straddles a cut: an exact tie the router's
// gather breaks over other candidates than the merged engine (DESIGN.md
// §11). Such a row must carry the oracle's distance bit for bit, its
// region must be the a×b rectangle anchored at its point and lie in the
// extent, and its representation must be the one recomputed at that
// point over the merged corpus, which must reproduce the distance.
func (b *bench) mismatch(k oracleKey, got []wire.Result, want oracleAnswer, ds *asrs.Dataset) string {
	if want.err != nil {
		return fmt.Sprintf("oracle failed: %v", want.err)
	}
	if fingerprint(got) == fingerprint(want.res) {
		return ""
	}
	q := b.queries[k.id].req
	if k.kind == opSearch {
		q = b.searches[k.id].req
	}
	if !b.sharded || !b.straddles(q.Within) {
		return "answer differs from the oracle"
	}
	if len(got) != len(want.res) {
		return fmt.Sprintf("%d results, oracle has %d", len(got), len(want.res))
	}
	bits := math.Float64bits
	for i, r := range got {
		w := want.res[i]
		if bits(r.Dist) != bits(w.Dist) {
			return fmt.Sprintf("result %d: distance %v, oracle %v", i, r.Dist, w.Dist)
		}
		if fingerprint([]wire.Result{r}) == fingerprint([]wire.Result{w}) {
			continue
		}
		p := asrs.Point{X: r.Point.X, Y: r.Point.Y}
		region := wire.RectLib(r.Region)
		anchored := asp.AnchorTR.RegionFor(p, q.A, q.B)
		if !sameFloats([]float64{region.MinX, region.MinY, region.MaxX, region.MaxY},
			[]float64{anchored.MinX, anchored.MinY, anchored.MaxX, anchored.MaxY}) {
			return fmt.Sprintf("result %d: region is not the a×b rectangle anchored at its point", i)
		}
		if q.Within != nil && !q.Within.ContainsRect(region) {
			return fmt.Sprintf("result %d: region escapes the extent", i)
		}
		rects, err := asp.Reduce(ds, q.A, q.B, asp.AnchorTR)
		if err != nil {
			return fmt.Sprintf("result %d: reduce: %v", i, err)
		}
		rep := asp.PointRepresentation(rects, q.Query.F, p)
		if !sameFloats(rep, r.Rep) {
			return fmt.Sprintf("result %d: representation is not its region's over the merged corpus", i)
		}
		if d := q.Query.Distance(rep); bits(d) != bits(r.Dist) {
			return fmt.Sprintf("result %d: region is no merged-corpus answer (%v recomputed, %v served)", i, d, r.Dist)
		}
	}
	return ""
}

// straddles reports whether a window crosses the shard cut; a request
// without one spans every shard.
func (b *bench) straddles(within *asrs.Rect) bool {
	return within == nil || within.MinX < b.cut && b.cut < within.MaxX
}

func sameFloats(x, y []float64) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}

// gate checks every sample against its oracle. It runs after the timed
// phase and before the stack closes (ingest-mixed re-runs its final
// read set over HTTP).
func (b *bench) gate(st *stack, samples []sample) gateResult {
	g := gateResult{pass: make([]bool, len(samples))}
	ingest := b.spec.main[opInsert]
	oracleDS := b.ds
	if ingest {
		settleCompaction(st)
		objs := append(append([]asrs.Object(nil), b.ds.Objects...), st.acked...)
		oracleDS = &asrs.Dataset{Schema: b.ds.Schema, Objects: objs}
	}
	// A separate engine answers every distinct request: for shard-extent
	// it is the merged corpus, for ingest-mixed the corpus rebuilt from
	// the seed plus every acknowledged insert.
	eng, err := asrs.NewEngine(oracleDS, engineOptions(""))
	if err != nil {
		g.fail("oracle engine: %v", err)
		return g
	}
	seen := map[oracleKey]bool{}
	var keys []oracleKey
	for _, s := range samples {
		k := oracleKey{s.kind, s.id}
		if s.kind == opInsert || seen[k] || (ingest && s.kind == opQuery) {
			continue
		}
		seen[k] = true
		keys = append(keys, k)
	}
	if ingest {
		for id := range b.queries {
			keys = append(keys, oracleKey{opQuery, id})
		}
	}
	want := b.answerAll(eng, keys, b.cfg.corruptOracle)

	for i, s := range samples {
		switch {
		case !s.r.ok:
			g.fail("%s %d: %s", kindNames[s.kind], s.id, s.r.err)
		case s.kind == opInsert || (ingest && s.kind == opQuery):
			// Acks are checked by the reopen; timed-phase reads answer
			// against whichever epoch was current and are checked through
			// the final read set below.
			g.pass[i] = true
		default:
			k := oracleKey{s.kind, s.id}
			if msg := b.mismatch(k, s.r.res, want[k], oracleDS); msg != "" {
				g.fail("%s %d: %s", kindNames[s.kind], s.id, msg)
			} else {
				g.pass[i] = true
			}
		}
	}
	if ingest {
		// Background compaction keeps pace with the staged volume: every
		// crossing of CompactAt but the last completes one.
		g.extraAttempts++
		least := len(st.acked)/compactAt - 1
		if got := int(st.eng.Stats().Compactions); got < least {
			g.fail("%d compactions for %d acknowledged objects, want at least %d", got, len(st.acked), least)
		}
		// The final read set over the settled corpus. Its median latency
		// is recorded as the quiet-corpus baseline of the timed reads.
		var lats []float64
		for id := range b.queries {
			g.extraAttempts++
			r := doQuery(st, b.queries[id].wire)
			lats = append(lats, ms(r.lat))
			if !r.ok {
				g.fail("final read %d: %s", id, r.err)
			} else if msg := b.mismatch(oracleKey{opQuery, id}, r.res, want[oracleKey{opQuery, id}], oracleDS); msg != "" {
				g.fail("final read %d: %s", id, msg)
			}
		}
		g.settledReadMS = quantile(lats, 0.5)
	}
	return g
}

// settleCompaction waits (up to five seconds) until the engine's
// background compaction counters stop moving, so the stack closes
// between compactions.
func settleCompaction(st *stack) {
	if st.eng == nil {
		return
	}
	last := st.eng.Stats()
	stable := 0
	for i := 0; i < 100 && stable < 4; i++ {
		time.Sleep(50 * time.Millisecond)
		cur := st.eng.Stats()
		if cur.Compactions == last.Compactions && cur.CompactionErrors == last.CompactionErrors {
			stable++
		} else {
			stable = 0
		}
		last = cur
	}
}

// reopenCheck opens a fresh engine on the closed stack's WAL directory
// and checks that recovery finds every acknowledged object, bit for bit
// and in order.
func (b *bench) reopenCheck(st *stack, g *gateResult) {
	g.extraAttempts++
	eng, err := asrs.NewEngine(b.ds, engineOptions(st.walDir))
	if err != nil {
		g.fail("reopen: %v", err)
		return
	}
	defer eng.Close()
	got := eng.IngestedObjects()
	if len(got) != len(st.acked) {
		g.fail("reopen: recovered %d objects, %d were acknowledged", len(got), len(st.acked))
		return
	}
	for i := range got {
		if !sameObject(got[i], st.acked[i]) {
			g.fail("reopen: recovered object %d differs from the acknowledged one", i)
			return
		}
	}
}

func sameObject(a, b asrs.Object) bool {
	bits := math.Float64bits
	if bits(a.Loc.X) != bits(b.Loc.X) || bits(a.Loc.Y) != bits(b.Loc.Y) || len(a.Values) != len(b.Values) {
		return false
	}
	for i := range a.Values {
		if a.Values[i].Cat != b.Values[i].Cat || bits(a.Values[i].Num) != bits(b.Values[i].Num) {
			return false
		}
	}
	return true
}
