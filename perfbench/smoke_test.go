package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"asrs"
	"asrs/internal/wire"
)

// smokeN is each workload's corpus size for the smoke test.
var smokeN = map[string]string{
	"serve-hotset": "3000",
	"search-adhoc": "600",
	"ingest-mixed": "1500",
	"shard-extent": "3000",
}

// declared reads the metric names BENCHMARK.json declares, for the
// untraced (end_to_end) and the traced (per_layer) runs.
func declared(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, m := range doc.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range doc.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

func runSmoke(t *testing.T, args ...string) (int, result, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(append(args, "--out", t.TempDir()), &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if len(lines) > 0 && lines[len(lines)-1] != "" {
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("%v: last line is no result: %v\n%s", args, err, stdout.String())
		}
	}
	return code, res, stderr.String()
}

// TestSmoke runs every workload at a tiny corpus, untraced and traced,
// and checks the result line: correct, nothing failed, every declared
// metric present.
func TestSmoke(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, wl := range []string{"serve-hotset", "search-adhoc", "ingest-mixed", "shard-extent"} {
		for _, trace := range []string{"0", "1"} {
			t.Run(wl+"/trace="+trace, func(t *testing.T) {
				code, res, stderr := runSmoke(t, "--workload", wl, "--seed", "7", "--seconds", "1",
					"--trace", trace, "--n", smokeN[wl])
				if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("exit %d, result %+v\n%s", code, res, stderr)
				}
				want := endToEnd
				if trace == "1" {
					want = perLayer
				}
				for _, name := range want {
					if _, ok := res.Metrics[name]; !ok {
						t.Errorf("metric %s missing", name)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics reported, %d declared", len(res.Metrics), len(want))
				}
			})
		}
	}
}

// TestGateTrips corrupts one oracle answer bit and expects the gate to
// fail the run with a non-zero exit.
func TestGateTrips(t *testing.T) {
	for _, wl := range []string{"serve-hotset", "ingest-mixed", "shard-extent"} {
		code, res, _ := runSmoke(t, "--workload", wl, "--seed", "7", "--seconds", "1",
			"--n", smokeN[wl], "--corrupt-oracle")
		if code == 0 || res.Correct || res.Failed == 0 {
			t.Errorf("%s: corrupted oracle passed the gate: exit %d, result %+v", wl, code, res)
		}
	}
}

// TestGateStraddling checks the gate's path for extents that straddle
// the shard cut, where a router may serve another region of equal
// distance: a served row with the oracle's answer passes, one whose
// representation or region was corrupted does not.
func TestGateStraddling(t *testing.T) {
	b, err := newBench(config{workload: "shard-extent", seed: 7, n: 3000})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := asrs.NewEngine(b.ds, engineOptions(""))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	k := oracleKey{kind: opQuery, id: -1}
	for id, q := range b.queries {
		if b.straddles(q.req.Within) {
			k.id = id
			break
		}
	}
	if k.id < 0 {
		t.Fatal("no straddling extent in the pool")
	}
	want := b.answerAll(eng, []oracleKey{k}, false)[k]
	if want.err != nil || len(want.res) == 0 {
		t.Fatalf("oracle: %v, %d results", want.err, len(want.res))
	}
	served := func(edit func(r *wire.Result)) []wire.Result {
		out := make([]wire.Result, len(want.res))
		for i, r := range want.res {
			r.Rep = append([]float64(nil), r.Rep...)
			out[i] = r
		}
		edit(&out[0])
		return out
	}
	flip := func(v float64) float64 { return math.Float64frombits(math.Float64bits(v) ^ 1) }
	if msg := b.mismatch(k, served(func(*wire.Result) {}), want, b.ds); msg != "" {
		t.Errorf("the oracle's own answer fails: %s", msg)
	}
	for name, edit := range map[string]func(r *wire.Result){
		"representation": func(r *wire.Result) { r.Rep[0] = flip(r.Rep[0]) },
		"region":         func(r *wire.Result) { r.Region.MaxX = flip(r.Region.MaxX) },
	} {
		if msg := b.mismatch(k, served(edit), want, b.ds); msg == "" {
			t.Errorf("corrupted %s passes the gate", name)
		}
	}
}
