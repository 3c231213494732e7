package main

import (
	"fmt"
	"math/rand"
	"sort"

	"tdb/internal/constraints"
	"tdb/internal/engine"
	"tdb/internal/interval"
	"tdb/internal/relation"
	"tdb/internal/workload"
)

// Every input is derived from the run's seed through internal/workload, so
// one seed always yields the same relations, query parameters and streams.

// query is one request of a read workload: quel text plus its parameters,
// and whether it travels as a prepared-statement execution.
type query struct {
	name     string
	text     string
	params   []any
	prepared bool
}

const (
	e26Select = `range of f is Faculty
retrieve (f.Name, f.ValidFrom) where f.Rank = $1`
	superstar = `range of f1 is Faculty
range of f2 is Faculty
range of f3 is Faculty
retrieve (Name=f1.Name, ValidFrom=f1.ValidFrom, ValidTo=f2.ValidTo)
where f3.Rank="Associate" and f1.Name=f2.Name and f1.Rank="Assistant"
  and f2.Rank="Full" and (f1 overlap f3) and (f2 overlap f3)`
	containSemijoin = `range of x is X
range of y is Y
retrieve (x.S, x.ValidFrom, x.ValidTo) where (x contains y)`
	selfDuringSemijoin = `range of a is X
range of b is X
retrieve (a.S, a.ValidFrom, a.ValidTo) where (a during b)`
	beforeSemijoin = `range of x is X
range of y is Y
retrieve (x.S, x.ValidFrom, x.ValidTo) where (x before y)`
	// The two large-answer joins, over relation pair %[1]d.
	containJoin = `range of x is X%[1]d
range of y is Y%[1]d
retrieve (XS=x.S, YS=y.S, ValidFrom=y.ValidFrom, ValidTo=y.ValidTo) where (x contains y)`
	overlapJoin = `range of x is X%[1]d
range of y is Y%[1]d
retrieve (XS=x.S, YS=y.S, ValidFrom=x.ValidFrom, ValidTo=x.ValidTo) where (x overlap y)`
	// overlapWatch is the ingest workload's standing query; its retrieve
	// twin is the batch execution the received deltas are checked against.
	overlapWatch = `range of x is X
range of y is Y
subscribe watch (XS=x.S, YS=y.S) where (x overlap y) and x.V = "v0" and y.V = "v0"`
	overlapWatchBatch = `range of x is X
range of y is Y
retrieve (XS=x.S, YS=y.S) where (x overlap y) and x.V = "v0" and y.V = "v0"`
)

const (
	pointN = 256  // Faculty members and X/Y tuples of the point workload
	scanN  = 1000 // X/Y tuples of the scan and mixed workloads

	// xyPairs is how many X/Y relation pairs scan and mixed spread their
	// joins over. The answer size of one E25-shaped pair at n=1000 varies
	// by about ±10% from seed to seed, with the number of long X tuples;
	// a rotation over four pairs halves that, so the latency figures
	// follow the code rather than the draw.
	xyPairs = 4

	// The ingest streams follow E23: arrival rate λ=2 per chronon on
	// each relation, a reorder slack of 8 chronons, and arrival jitter
	// strictly below the slack, so no tuple is ever late.
	ingestLambda = 2
	ingestSlack  = 8
	ingestBatch  = 64

	// The mixed appender offers one batch of mixedBatch rows every
	// mixedPeriod into a live relation no query reads.
	mixedBatch    = 16
	mixedPeriodMS = 20
	mixedRelation = "M"
)

// pointRotation is the point workload's fixed request rotation: the E26
// selection half prepared (a plan-cache hit after the first binding) and
// half ad hoc, then one of each small-answer temporal query.
func pointRotation() []query {
	var qs []query
	for _, rank := range workload.Ranks {
		qs = append(qs,
			query{name: "e26-select-prepared", text: e26Select, params: []any{rank}, prepared: true},
			query{name: "e26-select-adhoc", text: e26Select, params: []any{rank}})
	}
	return append(qs,
		query{name: "superstar", text: superstar},
		query{name: "contain-semijoin", text: containSemijoin},
		query{name: "self-during-semijoin", text: selfDuringSemijoin},
		query{name: "before-semijoin", text: beforeSemijoin})
}

// joinRotation runs the given joins (containJoin, overlapJoin) over each
// relation pair in turn.
func joinRotation(joins ...string) []query {
	var qs []query
	for p := 1; p <= xyPairs; p++ {
		for _, j := range joins {
			name := "overlap-join"
			if j == containJoin {
				name = "contain-join"
			}
			qs = append(qs, query{name: fmt.Sprintf("%s/%d", name, p), text: fmt.Sprintf(j, p)})
		}
	}
	return qs
}

// xyRelations draws the E22/E25-shaped pair: X with long lifespans (a
// tenth of them ten times longer), Y with short ones.
func xyRelations(n int, seed int64, xname, yname string) (*relation.Relation, *relation.Relation) {
	xs := workload.Tuples(workload.Config{N: n, Lambda: 1, MeanDur: 25, LongFrac: 0.1, Seed: seed}, "x")
	ys := workload.Tuples(workload.Config{N: n, Lambda: 1, MeanDur: 4, Seed: seed + 1}, "y")
	return relation.FromTuples(xname, xs), relation.FromTuples(yname, ys)
}

// xyPairRelations draws the xyPairs relation pairs X1/Y1 … of scan and
// mixed, each from its own seed.
func xyPairRelations(seed int64) []*relation.Relation {
	var rels []*relation.Relation
	for p := 1; p <= xyPairs; p++ {
		x, y := xyRelations(scanN, seed*100+int64(10*p), fmt.Sprintf("X%d", p), fmt.Sprintf("Y%d", p))
		rels = append(rels, x, y)
	}
	return rels
}

// rankOrder is the Faculty chronological-order integrity constraint the
// Superstar query's semantic optimization relies on.
func rankOrder() constraints.ChronOrder {
	return constraints.ChronOrder{
		Relation: "Faculty", KeyCol: "Name", ValCol: "Rank",
		Order: append([]string{}, workload.Ranks...),
	}
}

// catalogFor builds the base catalog a workload's server starts from.
func catalogFor(w string, seed int64) (*engine.DB, error) {
	db := engine.NewDB()
	var rels []*relation.Relation
	switch w {
	case "point":
		x, y := xyRelations(pointN, seed+1, "X", "Y")
		rels = []*relation.Relation{workload.Faculty(workload.FacultyConfig{N: pointN, Seed: seed}), x, y}
	case "scan":
		rels = xyPairRelations(seed)
	case "ingest":
		rels = []*relation.Relation{relation.New("X", relation.TupleSchema), relation.New("Y", relation.TupleSchema)}
	case "mixed":
		rels = append(xyPairRelations(seed), relation.New(mixedRelation, relation.TupleSchema))
	default:
		return nil, fmt.Errorf("unknown workload %q", w)
	}
	for _, r := range rels {
		if err := db.Register(r); err != nil {
			return nil, err
		}
	}
	if w == "point" {
		if err := db.DeclareChronOrder(rankOrder()); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// batch is one append request: rows for one relation, in arrival order.
type batch struct {
	rel  string
	rows []relation.Row
}

// ingestStream generates the ingest workload's E23-shaped X and Y
// streams chunk by chunk, so a run holds only what it has sent. Each
// relation's arrival order is its TS order jittered by less than the
// slack; the streams are cut into per-relation batches of up to
// ingestBatch rows, alternating X and Y so both advance through time
// together.
type ingestStream struct {
	rels [2]*relStream
	turn int
}

// relStream is one relation's stream: chunks of streamChunk tuples drawn
// with per-chunk seeds, each shifted to start where the previous ended.
type relStream struct {
	name, prefix string
	cfg          workload.Config
	rng          *rand.Rand
	chunk        int
	offset       interval.Time
	pending      []relation.Row
}

const streamChunk = 4096

func newIngestStream(seed int64) *ingestStream {
	s := &ingestStream{rels: [2]*relStream{
		{name: "X", prefix: "x", rng: rand.New(rand.NewSource(seed + 7)),
			cfg: workload.Config{Lambda: ingestLambda, MeanDur: 25, LongFrac: 0.1, Seed: seed + 3}},
		{name: "Y", prefix: "y", rng: rand.New(rand.NewSource(seed + 8)),
			cfg: workload.Config{Lambda: ingestLambda, MeanDur: 4, Seed: seed + 4}},
	}}
	for _, r := range s.rels {
		r.refill()
	}
	return s
}

// next returns the next batch, alternating relations.
func (s *ingestStream) next() batch {
	r := s.rels[s.turn]
	s.turn = 1 - s.turn
	if len(r.pending) < ingestBatch {
		r.refill()
	}
	b := batch{rel: r.name, rows: r.pending[:ingestBatch:ingestBatch]}
	r.pending = r.pending[ingestBatch:]
	return b
}

// refill draws the next chunk. Arrival keys are TS plus a uniform jitter
// below the slack, as in E23; a tuple of a later chunk starts after every
// tuple of earlier ones, so sorting within the chunk keeps every tuple
// within the slack of the watermark.
func (r *relStream) refill() {
	cfg := r.cfg
	cfg.N = streamChunk
	cfg.Seed += int64(r.chunk) * 1000003
	ts := workload.Tuples(cfg, fmt.Sprintf("%s%d.", r.prefix, r.chunk))
	r.chunk++
	keys := make([]interval.Time, len(ts))
	idx := make([]int, len(ts))
	for i := range ts {
		ts[i].Span = interval.New(ts[i].Span.Start+r.offset, ts[i].Span.End+r.offset)
		keys[i] = ts[i].Span.Start + interval.Time(r.rng.Int63n(ingestSlack))
		idx[i] = i
	}
	r.offset = ts[len(ts)-1].Span.Start
	sort.SliceStable(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
	for _, i := range idx {
		r.pending = append(r.pending, relation.TupleToRow(ts[i]))
	}
}

// mixedStream draws the mixed workload's append stream: TS-ordered rows
// for the unread live relation, cut into fixed-size batches.
func mixedStream(batches int, seed int64) []batch {
	ts := workload.Tuples(workload.Config{N: batches * mixedBatch, Lambda: ingestLambda, MeanDur: 4, Seed: seed + 5}, "m")
	out := make([]batch, batches)
	for i := range out {
		rows := make([]relation.Row, mixedBatch)
		for j := range rows {
			rows[j] = relation.TupleToRow(ts[i*mixedBatch+j])
		}
		out[i] = batch{rel: mixedRelation, rows: rows}
	}
	return out
}

// wireRows renders engine rows as driver append cells.
func wireRows(rows []relation.Row) [][]any {
	out := make([][]any, len(rows))
	for i, r := range rows {
		cells := make([]any, len(r))
		for j, v := range r {
			cells[j] = cellOf(v)
		}
		out[i] = cells
	}
	return out
}
