package dssearch_test

import (
	"math"
	"math/rand"
	"testing"

	"asrs/internal/agg"
	"asrs/internal/asp"
	"asrs/internal/attr"
	"asrs/internal/dataset"
	"asrs/internal/dssearch"
	"asrs/internal/geom"
)

// topK drains the shared greedy iterator over the unbounded single
// round, the path every top-k consumer runs.
func topK(ds *attr.Dataset, a, b float64, q asp.Query, k int, exclude []geom.Rect, opt dssearch.Options) ([]geom.Rect, []asp.Result, *dssearch.Greedy, error) {
	g := dssearch.NewGreedy(exclude, func(excl []geom.Rect) (geom.Rect, asp.Result, error) {
		region, res, _, err := dssearch.SolveASRSExcluding(ds, a, b, q, excl, opt)
		return region, res, err
	})
	regions, results, err := g.Take(k)
	return regions, results, g, err
}

func TestTopKNonOverlappingAndOrdered(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	for trial := 0; trial < 10; trial++ {
		ds := dataset.Random(60, 60, rng.Int63())
		f := agg.MustNew(ds.Schema,
			agg.Spec{Kind: agg.Distribution, Attr: "cat"},
		)
		target := []float64{float64(rng.Intn(5)), float64(rng.Intn(5)), float64(rng.Intn(5))}
		q := asp.Query{F: f, Target: target}
		const k = 4
		regions, results, _, err := topK(ds, 7, 7, q, k, nil, dssearch.Options{NCol: 10, NRow: 10})
		if err != nil {
			t.Fatal(err)
		}
		if len(regions) != k || len(results) != k {
			t.Fatalf("got %d regions, want %d", len(regions), k)
		}
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				if regions[i].IntersectsOpen(regions[j]) {
					t.Fatalf("trial %d: regions %d and %d overlap: %v, %v", trial, i, j, regions[i], regions[j])
				}
			}
			if i > 0 && results[i].Dist < results[i-1].Dist-1e-9 {
				t.Fatalf("trial %d: distances not monotone: %g after %g", trial, results[i].Dist, results[i-1].Dist)
			}
		}
		// The first answer must match the unconstrained optimum.
		_, best, _, err := dssearch.SolveASRS(ds, 7, 7, q, dssearch.Options{NCol: 10, NRow: 10})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(results[0].Dist-best.Dist) > 1e-9 {
			t.Fatalf("trial %d: top-1 %g != optimum %g", trial, results[0].Dist, best.Dist)
		}
	}
}

func TestTopKRespectsExternalExclusion(t *testing.T) {
	ds := dataset.Random(50, 50, 51)
	f := agg.MustNew(ds.Schema, agg.Spec{Kind: agg.Distribution, Attr: "cat"})
	q := asp.Query{F: f, Target: []float64{3, 3, 3}}
	avoid := geom.Rect{MinX: 10, MinY: 10, MaxX: 30, MaxY: 30}
	regions, _, _, err := topK(ds, 6, 6, q, 3, []geom.Rect{avoid}, dssearch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range regions {
		if r.IntersectsOpen(avoid) {
			t.Fatalf("region %d (%v) overlaps exclusion %v", i, r, avoid)
		}
	}
}

func TestTopKValidation(t *testing.T) {
	ds := dataset.Random(5, 10, 52)
	f := agg.MustNew(ds.Schema, agg.Spec{Kind: agg.Distribution, Attr: "cat"})
	q := asp.Query{F: f, Target: []float64{0, 0, 0}}
	if regions, _, g, err := topK(ds, 2, 2, q, 0, nil, dssearch.Options{}); err != nil || len(regions) != 0 || g.Rounds() != 0 {
		t.Errorf("k=0: %d regions after %d rounds, err %v; want none", len(regions), g.Rounds(), err)
	}
	if _, _, _, err := topK(ds, 2, 2, q, 2, nil, dssearch.Options{Anchor: asp.AnchorBL}); err == nil {
		t.Error("non-TR anchor accepted")
	}
}
