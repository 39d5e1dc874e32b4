package query_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"asrs"
	"asrs/internal/query"
	"asrs/internal/shard"
)

func assertNoOverlap(t *testing.T, tag string, regions []asrs.Rect, want int) {
	t.Helper()
	if len(regions) != want {
		t.Fatalf("%s: %d regions, want %d", tag, len(regions), want)
	}
	for i := range regions {
		for j := i + 1; j < len(regions); j++ {
			if regions[i].IntersectsOpen(regions[j]) {
				t.Fatalf("%s: regions %d %+v and %d %+v overlap", tag, i, regions[i], j, regions[j])
			}
		}
	}
}

// TestTopKEmptyRegionNoRepeat: when the best answers are empty regions
// outside the data, unbounded greedy top-k must still return k
// pairwise non-overlapping regions — each round's empty candidate has
// to move past the earlier answers instead of re-answering the first.
// The stream reproduces the engine's one-shot answer bit-for-bit.
func TestTopKEmptyRegionNoRepeat(t *testing.T) {
	ds, f := corpus(t, 400, 3)
	eng, err := asrs.NewEngine(ds, asrs.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p := query.NewPlanner(ds.Schema, nil)
	for _, tc := range []struct {
		target []float64
		size   float64
		k      int
	}{
		{[]float64{0, 0, 0, 0}, 8, 3},
		{[]float64{1, 2, 1, 5}, 45, 12},
	} {
		tag := fmt.Sprintf("target%v/size%g/k%d", tc.target, tc.size, tc.k)
		q := mustTarget(t, f, tc.target, nil)
		resp := eng.QueryCtx(context.Background(), asrs.QueryRequest{Query: q, A: tc.size, B: tc.size, TopK: tc.k})
		if resp.Err != nil {
			t.Fatal(resp.Err)
		}
		assertNoOverlap(t, tag+"/engine", resp.Regions, tc.k)

		src := fmt.Sprintf("find top %d size %g x %g similar to target(%g,%g,%g,%g) under dist(cat) + sum(val)",
			tc.k, tc.size, tc.size, tc.target[0], tc.target[1], tc.target[2], tc.target[3])
		pl, err := p.ParseAndPlan(src)
		if err != nil {
			t.Fatal(err)
		}
		st, err := query.Exec(context.Background(), pl, query.EngineBinding{E: eng})
		if err != nil {
			t.Fatal(err)
		}
		regions, _, err := st.Collect()
		if err != nil {
			t.Fatal(err)
		}
		assertNoOverlap(t, tag+"/stream", regions, tc.k)
		checkStreamMatches(t, pl, query.EngineBinding{E: eng}, resp.Regions, resp.Results)
	}
}

// TestTopKExhaustion: every top-k consumer ends the greedy sequence the
// same way. The window holds exactly two non-overlapping 8×8 regions —
// an exclusion leaves only two anchor strips 16 apart, each narrower
// than a region — so TopK 4 yields exactly 2 rows and no error, on the
// windowed engine, the router (contained and straddling extents) and a
// drained stream over both bindings. Excluding the whole window yields
// ErrNoFeasibleRegion everywhere.
func TestTopKExhaustion(t *testing.T) {
	ds, f := corpus(t, 80, 5)
	q := mustTarget(t, f, []float64{1, 2, 1, 5}, nil)
	eng, err := asrs.NewEngine(ds, asrs.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cat, err := shard.New(ds, shard.Config{
		Shards:     2,
		Composites: map[string]*asrs.Composite{"q": f},
		Names:      []string{"q"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	rt := shard.NewRouter(cat, shard.RouterOptions{Breaker: shard.BreakerConfig{Disable: true}})
	p := query.NewPlanner(ds.Schema, nil)
	cut := cat.Cuts()[0]

	const a, b, k = 8.0, 8.0, 4
	for _, ext := range []struct {
		name string
		x0   float64
	}{
		{"contained", cut - 40},
		{"straddling", cut - 13},
	} {
		within := asrs.Rect{MinX: ext.x0, MinY: 30, MaxX: ext.x0 + 3*a + 2, MaxY: 30 + b + 4}
		middle := asrs.Rect{MinX: ext.x0 + a + 1, MinY: within.MinY, MaxX: ext.x0 + 2*a + 1, MaxY: within.MaxY}
		for _, c := range []struct {
			name    string
			exclude asrs.Rect
			rows    int
		}{
			{"two-fit", middle, 2},
			{"blocked", within, 0},
		} {
			tag := ext.name + "/" + c.name
			check := func(consumer string, regions []asrs.Rect, err error) {
				t.Helper()
				if c.rows == 0 {
					if !errors.Is(err, asrs.ErrNoFeasibleRegion) {
						t.Fatalf("%s/%s: err = %v, want ErrNoFeasibleRegion", tag, consumer, err)
					}
					return
				}
				if err != nil {
					t.Fatalf("%s/%s: %v", tag, consumer, err)
				}
				assertNoOverlap(t, tag+"/"+consumer, regions, c.rows)
				for i, r := range regions {
					if !within.ContainsRect(r) || r.IntersectsOpen(c.exclude) {
						t.Fatalf("%s/%s: region %d %+v escapes the window or hits the exclusion", tag, consumer, i, r)
					}
				}
			}
			excl := []asrs.Rect{c.exclude}
			resp := eng.QueryCtx(context.Background(), asrs.QueryRequest{Query: q, A: a, B: b, TopK: k, Exclude: excl, Within: &within})
			check("engine", resp.Regions, resp.Err)
			rresp := rt.Query(context.Background(), shard.Request{Query: q, A: a, B: b, TopK: k, Exclude: excl, Extent: &within})
			check("router", rresp.Regions, rresp.Err)
			if straddled := len(rresp.Coverage.Searched) > 1; straddled != (ext.name == "straddling") {
				t.Fatalf("%s: router searched %v", tag, rresp.Coverage.Searched)
			}

			src := fmt.Sprintf("find top %d size %g x %g similar to target(1,2,1,5) under dist(cat) + sum(val) excluding region(%g,%g,%g,%g) within region(%g,%g,%g,%g)",
				k, a, b, c.exclude.MinX, c.exclude.MinY, c.exclude.MaxX, c.exclude.MaxY,
				within.MinX, within.MinY, within.MaxX, within.MaxY)
			pl, err := p.ParseAndPlan(src)
			if err != nil {
				t.Fatal(err)
			}
			for _, bind := range []struct {
				name string
				b    query.Binding
			}{
				{"stream-engine", query.EngineBinding{E: eng}},
				{"stream-router", query.RouterBinding{R: rt}},
			} {
				st, err := query.Exec(context.Background(), pl, bind.b)
				if err != nil {
					t.Fatal(err)
				}
				regions, _, err := st.Collect()
				check(bind.name, regions, err)
			}
		}
	}
}
