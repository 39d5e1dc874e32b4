package dssearch

import (
	"errors"

	"asrs/internal/asp"
	"asrs/internal/geom"
)

// Round is one single-best search of a greedy sequence: the best region
// that overlaps none of the exclude rectangles (beyond a shared
// boundary). The slice is read-only to the round; it may be retained,
// since the iterator only ever appends to it.
type Round func(exclude []geom.Rect) (geom.Rect, asp.Result, error)

// Greedy is the lazy greedy top-k iterator every top-k consumer shares
// (the engine, the shard router's straddling gather and the query
// stream). Round i searches with the caller's exclusions plus every
// earlier round's region; a region joins the exclusions whether or not
// the consumer keeps it, so a filtering consumer never re-finds a
// rejected region. ErrNoFeasibleRegion after the first round ends the
// sequence cleanly; any other error, or that error on the first round,
// ends it with Err set. Each Next runs at most one round.
type Greedy struct {
	round  Round
	excl   []geom.Rect
	rounds int
	done   bool
	err    error
}

// NewGreedy returns the greedy sequence of round avoiding exclude.
func NewGreedy(exclude []geom.Rect, round Round) *Greedy {
	return &Greedy{round: round, excl: append([]geom.Rect(nil), exclude...)}
}

// Next runs the next round and returns its answer; ok=false means the
// sequence ended (see Err).
func (g *Greedy) Next() (region geom.Rect, res asp.Result, ok bool) {
	if g.done {
		return geom.Rect{}, asp.Result{}, false
	}
	region, res, err := g.round(g.excl)
	g.rounds++
	if err != nil {
		g.done = true
		if !errors.Is(err, ErrNoFeasibleRegion) || g.rounds == 1 {
			g.err = err
		}
		return geom.Rect{}, asp.Result{}, false
	}
	g.excl = append(g.excl, region)
	return region, res, true
}

// Take runs rounds until it holds k answers or the sequence ends, and
// returns the answers with Err.
func (g *Greedy) Take(k int) ([]geom.Rect, []asp.Result, error) {
	var regions []geom.Rect
	var results []asp.Result
	for len(regions) < k {
		region, res, ok := g.Next()
		if !ok {
			break
		}
		regions = append(regions, region)
		results = append(results, res)
	}
	return regions, results, g.err
}

// Err returns the error that ended the sequence, if any.
func (g *Greedy) Err() error { return g.err }

// Rounds returns how many rounds have run.
func (g *Greedy) Rounds() int { return g.rounds }
