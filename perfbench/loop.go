package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"net/http"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"asrs/internal/wire"
)

// reply is what the benchmark keeps of one response: status, timings and
// the decoded answers for the correctness gate, which runs after the
// timed phase.
type reply struct {
	ok   bool
	err  string
	lat  time.Duration // send → decoded response (search: → done row)
	ttfr time.Duration // search: send → first result row
	res  []wire.Result
}

// fingerprint hashes every bit of an answer list: region, point,
// distance and representation of each result, in order.
func fingerprint(rs []wire.Result) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v float64) {
		u := math.Float64bits(v)
		for i := range buf {
			buf[i] = byte(u >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, r := range rs {
		put(r.Region.MinX)
		put(r.Region.MinY)
		put(r.Region.MaxX)
		put(r.Region.MaxY)
		put(r.Point.X)
		put(r.Point.Y)
		put(r.Dist)
		for _, v := range r.Rep {
			put(v)
		}
		put(math.Inf(1)) // result separator
	}
	return h.Sum64()
}

func post(st *stack, path string, body any) (*http.Response, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	return st.client.Post(st.url+path, "application/json", bytes.NewReader(raw))
}

func failed(format string, args ...any) reply { return reply{err: fmt.Sprintf(format, args...)} }

func doQuery(st *stack, q wire.Query) reply {
	start := time.Now()
	resp, err := post(st, "/v1/query", q)
	if err != nil {
		return failed("%v", err)
	}
	defer resp.Body.Close()
	var wr wire.Response
	if err := json.NewDecoder(resp.Body).Decode(&wr); err != nil {
		return failed("status %d: decode: %v", resp.StatusCode, err)
	}
	lat := time.Since(start)
	if resp.StatusCode != http.StatusOK || wr.Error != "" || len(wr.Results) == 0 {
		return failed("status %d: %s %s", resp.StatusCode, wr.Code, wr.Error)
	}
	return reply{ok: true, lat: lat, res: wr.Results}
}

func doSearch(st *stack, text string) reply {
	start := time.Now()
	resp, err := post(st, "/v1/search", wire.Search{Q: text})
	if err != nil {
		return failed("%v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return failed("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var (
		r    reply
		rows []wire.Result
	)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 8<<20)
	for sc.Scan() {
		var row wire.SearchRow
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			return failed("decode row: %v", err)
		}
		switch {
		case row.Error != "":
			return failed("error row: %s %s", row.Code, row.Error)
		case row.Done:
			r.lat = time.Since(start)
			if len(rows) == 0 || row.Count != len(rows) {
				return failed("done row counts %d results, stream carried %d", row.Count, len(rows))
			}
			r.ok, r.res = true, rows
			return r
		case row.Result != nil:
			if len(rows) == 0 {
				r.ttfr = time.Since(start)
			}
			rows = append(rows, *row.Result)
		}
	}
	if err := sc.Err(); err != nil {
		return failed("read stream: %v", err)
	}
	return failed("stream ended without a done row")
}

func doInsert(st *stack, o op) reply {
	start := time.Now()
	resp, err := post(st, "/v1/insert", wire.Insert{Objects: o.wire})
	if err != nil {
		return failed("%v", err)
	}
	defer resp.Body.Close()
	var ir wire.InsertResponse
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		return failed("status %d: decode: %v", resp.StatusCode, err)
	}
	lat := time.Since(start)
	if resp.StatusCode != http.StatusOK || ir.Ingested != len(o.objs) {
		return failed("status %d: ingested %d of %d", resp.StatusCode, ir.Ingested, len(o.objs))
	}
	return reply{ok: true, lat: lat}
}

// sample is one timed request.
type sample struct {
	client int
	kind   opKind
	id     int
	r      reply
	late   time.Duration // open loop: actual send − scheduled send
	probe  bool
}

func (b *bench) send(st *stack, o op) reply {
	switch o.kind {
	case opQuery:
		return doQuery(st, b.queries[o.id].wire)
	case opSearch:
		return doSearch(st, b.searches[o.id].text)
	default:
		return doInsert(st, o)
	}
}

// clientStream returns client c's seeded request generator. The same
// (seed, client) always yields the same sequence, which is what lets
// the traced run replay the untraced run's stream.
func (b *bench) clientStream(c int) func() op {
	rng := rand.New(rand.NewSource(b.cfg.seed*1_000_003 + int64(c)*7919 + 17))
	switch b.spec.name {
	case "serve-hotset":
		// Queries 0..hotCold-1 are the cold pool; hot sets follow, visited
		// in a seeded order.
		order := rand.New(rand.NewSource(b.cfg.seed)).Perm(hotSegments)
		i := 0
		return func() op {
			hot := hotCold + order[i/hotSegment%hotSegments]*hotSet
			i++
			if rng.Float64() < 0.8 {
				return op{kind: opQuery, id: hot + rng.Intn(hotSet)}
			}
			return op{kind: opQuery, id: rng.Intn(hotCold)}
		}
	case "search-adhoc":
		// Each client walks a seeded permutation of the pool, the second
		// from its middle, so a run covers the pool evenly.
		order := rand.New(rand.NewSource(b.cfg.seed)).Perm(adhocPool)
		i := c * adhocPool / 2
		return func() op { i++; return op{kind: opSearch, id: order[(i-1)%adhocPool]} }
	case "ingest-mixed":
		if c == 0 { // the open-loop writer
			return func() op { return b.insertBatch(rng) }
		}
		i := 0
		return func() op { i++; return op{kind: opQuery, id: (i - 1) % len(b.queries)} }
	default: // shard-extent
		return func() op { return op{kind: opQuery, id: rng.Intn(len(b.queries))} }
	}
}

// phase drives the workload's traffic for the given duration and
// returns every sample plus the measured wall time. limit, when
// non-nil, also caps the requests each client sends, and wrap, when
// non-nil, sends each request (the traced replay).
func (b *bench) phase(st *stack, d time.Duration, limit []int, wrap func(o op, send func() reply) reply) ([]sample, time.Duration) {
	var (
		mu  sync.Mutex
		all []sample
		wg  sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < 2; c++ {
		next := b.clientStream(c)
		openLoop := b.spec.name == "ingest-mixed" && c == 0
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var mine []sample
			for i := 0; limit == nil || i < limit[c]; i++ {
				o := next()
				s := sample{client: c, kind: o.kind, id: o.id}
				due := time.Now()
				if openLoop {
					due = start.Add(time.Duration(i) * time.Second / ingestRate)
				}
				if !due.Before(deadline) {
					break
				}
				if w := time.Until(due); w > 0 {
					time.Sleep(w)
				}
				s.late = time.Since(due)
				if wrap != nil {
					s.r = wrap(o, func() reply { return b.send(st, o) })
				} else {
					s.r = b.send(st, o)
				}
				if openLoop {
					s.r.lat = time.Since(due) // ack latency counts the generator's stall
					if s.r.ok {
						mu.Lock()
						st.acked = append(st.acked, o.objs...)
						mu.Unlock()
					}
				}
				mine = append(mine, s)
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return all, time.Since(start)
}

// probe sends requests of one kind the workload's timed traffic lacks
// from a single client: the fixed query or search list, closed loop,
// over and over for probeTime (at least once through), or probeInserts
// inserts paced evenly over probeTime, so every probe samples the host
// over as long a stretch.
func (b *bench) probe(st *stack, kind opKind) ([]sample, time.Duration) {
	rng := rand.New(rand.NewSource(corpusSeed ^ int64(kind+1)*0x51ed27))
	var out []sample
	start := time.Now()
	for i := 0; ; i++ {
		o := op{kind: kind}
		switch kind {
		case opQuery:
			o.id = i % len(b.queries)
		case opSearch:
			o.id = i % len(b.searches)
		default:
			o = b.insertBatch(rng)
		}
		if kind == opInsert && i == probeInserts || kind != opInsert && o.id == 0 && time.Since(start) >= probeTime {
			break
		}
		if kind == opInsert {
			time.Sleep(time.Until(start.Add(time.Duration(i) * probeTime / probeInserts)))
		}
		out = append(out, sample{kind: kind, id: o.id, r: b.send(st, o), probe: true})
	}
	return out, time.Since(start)
}

// heapSampler records the peak of live heap objects while running.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak in MiB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
