package dssearch_test

import (
	"errors"
	"testing"

	"asrs/internal/asp"
	"asrs/internal/dssearch"
	"asrs/internal/geom"
)

// TestGreedyPolicy pins the shared top-k policy with a scripted round:
// exclusions accumulate (caller's first, then every earlier region),
// ErrNoFeasibleRegion ends the sequence cleanly after the first round
// but is the error on the first, and any other error is surfaced.
func TestGreedyPolicy(t *testing.T) {
	caller := geom.Rect{MinX: -5, MinY: -5, MaxX: -1, MaxY: -1}
	boom := errors.New("boom")
	for _, tc := range []struct {
		name    string
		answers int   // rounds that answer before the terminal error
		end     error // the terminal round's error
		wantErr error
	}{
		{"runs-dry", 2, dssearch.ErrNoFeasibleRegion, nil},
		{"infeasible-first", 0, dssearch.ErrNoFeasibleRegion, dssearch.ErrNoFeasibleRegion},
		{"fails-later", 1, boom, boom},
	} {
		var seen [][]geom.Rect
		g := dssearch.NewGreedy([]geom.Rect{caller}, func(excl []geom.Rect) (geom.Rect, asp.Result, error) {
			seen = append(seen, excl)
			i := len(seen) - 1
			if i == tc.answers {
				return geom.Rect{}, asp.Result{}, tc.end
			}
			return geom.Rect{MinX: float64(10 * i), MaxX: float64(10*i + 1), MaxY: 1}, asp.Result{Dist: float64(i)}, nil
		})
		regions, results, err := g.Take(5)
		if !errors.Is(err, tc.wantErr) {
			t.Fatalf("%s: err = %v, want %v", tc.name, err, tc.wantErr)
		}
		if len(regions) != tc.answers || len(results) != tc.answers || g.Rounds() != tc.answers+1 {
			t.Fatalf("%s: %d regions after %d rounds, want %d after %d", tc.name, len(regions), g.Rounds(), tc.answers, tc.answers+1)
		}
		for i, excl := range seen {
			if len(excl) != i+1 || excl[0] != caller {
				t.Fatalf("%s: round %d saw exclusions %v", tc.name, i, excl)
			}
			for j := 1; j < len(excl); j++ {
				if excl[j] != regions[j-1] {
					t.Fatalf("%s: round %d exclusion %d = %v, want region %v", tc.name, i, j, excl[j], regions[j-1])
				}
			}
		}
		if _, _, ok := g.Next(); ok || g.Rounds() != tc.answers+1 {
			t.Fatalf("%s: Next after the end ran another round", tc.name)
		}
	}
}
