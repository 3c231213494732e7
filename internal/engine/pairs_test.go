package engine

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"tdb/internal/algebra"
	"tdb/internal/interval"
	"tdb/internal/relation"
	"tdb/internal/value"
	"tdb/internal/workload"
)

// projectOver projects q's output onto the given output columns
// (indexes into q's schema) under fresh names, so repeated columns stay
// legal.
func projectOver(q algebra.Expr, schema *relation.Schema, cols []int, distinct bool) *algebra.Project {
	p := &algebra.Project{Input: q, Distinct: distinct}
	for i, j := range cols {
		v, c, _ := strings.Cut(schema.Cols[j].Name, ".")
		p.Cols = append(p.Cols, algebra.Output{Name: fmt.Sprintf("c%d", i), From: algebra.ColRef{Var: v, Col: c}})
	}
	return p
}

// sameEncoding requires two row lists to be byte-identical under the
// codec, in the same order.
func sameEncoding(t *testing.T, name string, want, got []relation.Row) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d rows, want %d", name, len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(relation.AppendRow(nil, want[i]), relation.AppendRow(nil, got[i])) {
			t.Fatalf("%s: row %d = %v, want %v", name, i, got[i], want[i])
		}
	}
}

// A projection over a join's pairs must yield exactly what projecting the
// materialized join yields — same rows, same order, the same first
// occurrences under Distinct — and leave the join node's cost record
// alone, for every join algorithm and column shape. Execute keeps the
// answer factored, and its Rows are those rows.
func TestPairProjectionMatchesEager(t *testing.T) {
	equi := func(extra ...algebra.Atom) algebra.Expr {
		return &algebra.Join{
			L: &algebra.Scan{Relation: "X", As: "a"}, R: &algebra.Scan{Relation: "Y", As: "b"},
			Kind: algebra.KindTheta,
			Pred: algebra.Predicate{Atoms: append([]algebra.Atom{
				{L: algebra.Column("a", "V"), Op: algebra.EQ, R: algebra.Column("b", "V")},
			}, extra...)},
		}
	}
	residual := algebra.Atom{L: algebra.Column("a", "ValidFrom"), Op: algebra.LT, R: algebra.Column("b", "ValidTo")}
	type plan struct {
		name string
		q    algebra.Expr
		opt  Options
		rows bool // a row kernel: the join answers rows, not pairs
	}
	var plans []plan
	for _, kind := range []algebra.TemporalKind{algebra.KindContain, algebra.KindContained, algebra.KindOverlap, algebra.KindBefore} {
		plans = append(plans,
			plan{fmt.Sprintf("columnar %v", kind), joinOf(kind), colOpt(), kind == algebra.KindBefore},
			plan{fmt.Sprintf("rowexec %v", kind), joinOf(kind), rowOpt(), true})
		if kind != algebra.KindBefore {
			for _, k := range []int{2, 3, 8} {
				plans = append(plans, plan{fmt.Sprintf("parallel×%d %v", k, kind), joinOf(kind), forcePar(k), false})
			}
		}
	}
	plans = append(plans,
		plan{"hash", equi(residual), Options{}, false},
		plan{"sort-merge", equi(residual), Options{PreferMergeJoin: true}, false},
		plan{"nested-loop", equi(residual), Options{ForceNoHash: true}, false},
		plan{"nested-loop overlap", joinOf(algebra.KindOverlap), Options{ForceNestedLoop: true}, false},
		plan{"product", &algebra.Product{L: &algebra.Scan{Relation: "X", As: "a"}, R: &algebra.Scan{Relation: "Y", As: "b"}}, Options{}, false},
	)
	// Output columns by position in the 8-column join schema (S, V,
	// ValidFrom, ValidTo per side): V is "v0".."v6", heavily duplicated.
	shapes := [][]int{
		{1, 5},                   // a.V, b.V
		{0, 5, 2, 3},             // the scan shape: a.S, b.V, a's span
		{0, 2},                   // left only
		{5},                      // right only
		{0, 1, 2, 3},             // every left column: the right side has arity 0
		{7, 6, 5, 4},             // every right column, reversed
		{5, 1, 5, 1},             // repeated
		{},                       // no column
		{0, 1, 2, 3, 4, 5, 6, 7}, // every column
	}
	for _, n := range []int{0, 40, 300} {
		db := columnarWorkloadDB(t, n, int64(n)+7, 1, 20, 0.2)
		for _, p := range plans {
			ref, refStats, err := Run(db, p.q, p.opt)
			if err != nil {
				t.Fatalf("%s n=%d: %v", p.name, n, err)
			}
			refJoin := refStats.Nodes[len(refStats.Nodes)-1]
			for _, cols := range shapes {
				for _, distinct := range []bool{false, true} {
					name := fmt.Sprintf("%s n=%d cols=%v distinct=%v", p.name, n, cols, distinct)
					want := projectRows(&result{rows: ref.Rows}, cols, distinct)
					ans, st, err := Execute(db, projectOver(p.q, ref.Schema, cols, distinct), p.opt)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					f := ans.Factored()
					if (f == nil) != p.rows || ans.Len() != len(want) {
						t.Fatalf("%s: factored %v, %d rows; want %d rows", name, f != nil, ans.Len(), len(want))
					}
					if f != nil {
						checkClasses(t, name, f, distinct)
					}
					sameEncoding(t, name, want, ans.Rows())
					join := st.Nodes[len(st.Nodes)-2]
					if join.OutRows != refJoin.OutRows || join.Probe.Comparisons != refJoin.Probe.Comparisons ||
						join.Probe.TuplesRead() != refJoin.Probe.TuplesRead() || join.Probe.Emitted != refJoin.Probe.Emitted {
						t.Fatalf("%s: join cost %+v, materialized run %+v", name, join, refJoin)
					}
				}
			}
		}
	}
	// The governed fallback returns rows, not pairs; its projection must
	// agree with the materialized run all the same.
	db := governorDB(t, 40)
	for _, kind := range []algebra.TemporalKind{algebra.KindOverlap, algebra.KindContain} {
		opt := Options{GovernWorkspace: true}
		ref, _, err := Run(db, governorJoin(kind), opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, cols := range [][]int{{0, 3}, {1}, {}} {
			want := projectRows(&result{rows: ref.Rows}, cols, true)
			got, st, err := Execute(db, projectOver(governorJoin(kind), ref.Schema, cols, true), opt)
			if err != nil {
				t.Fatal(err)
			}
			if findNote(st, "degraded to baseline sort-merge") == "" {
				t.Fatalf("governed %v: no fallback", kind)
			}
			sameEncoding(t, fmt.Sprintf("governed %v cols=%v", kind, cols), want, got.Rows())
		}
	}
}

// checkClasses holds a factored answer to its shape: Cols numbers each
// side's cells 0, 1, … in output order, every class sub-row has its
// side's arity, every pair indexes both tables, and under distinct no
// side holds two identical sub-rows and no class pair repeats.
func checkClasses(t *testing.T, name string, f *Factored, distinct bool) {
	t.Helper()
	var arity [2]int
	for i, c := range f.Cols {
		if c.Cell != arity[c.Side] {
			t.Fatalf("%s: column %d is cell %d of side %d, want %d", name, i, c.Cell, c.Side, arity[c.Side])
		}
		arity[c.Side]++
	}
	for s, rows := range f.Classes {
		seen := map[string]bool{}
		for k, r := range rows {
			if len(r) != arity[s] {
				t.Fatalf("%s: side %d class %d has %d cells, want %d", name, s, k, len(r), arity[s])
			}
			key := string(relation.AppendRow(nil, r))
			if distinct && seen[key] {
				t.Fatalf("%s: side %d class %d repeats %v", name, s, k, r)
			}
			seen[key] = true
		}
	}
	pairs := map[[2]int32]bool{}
	for k := 0; k < f.Len(); k++ {
		l, r := f.Pair(k)
		if int(l) >= len(f.Classes[0]) || int(r) >= len(f.Classes[1]) || l < 0 || r < 0 {
			t.Fatalf("%s: pair %d = (%d, %d) outside %d×%d classes", name, k, l, r, len(f.Classes[0]), len(f.Classes[1]))
		}
		if distinct && pairs[[2]int32{l, r}] {
			t.Fatalf("%s: pair %d = (%d, %d) repeats", name, k, l, r)
		}
		pairs[[2]int32{l, r}] = true
	}
}

// The three equi-join algorithms agree on keys whose string forms would
// collide under a separator-joined key ("a\x1fb"+"c" against "a"+"b\x1fc")
// and on int keys equal to time keys of the same payload, which the
// predicate's equality equates.
func TestEquiJoinAlgorithmsAgreeOnKeys(t *testing.T) {
	schema := relation.MustSchema([]relation.Column{
		{Name: "A", Kind: value.KindString}, {Name: "B", Kind: value.KindString}, {Name: "K", Kind: value.KindInt},
	}, -1, -1)
	tschema := relation.MustSchema([]relation.Column{
		{Name: "A", Kind: value.KindString}, {Name: "B", Kind: value.KindString}, {Name: "K", Kind: value.KindTime},
	}, -1, -1)
	s, i, tv := value.String_, value.Int, value.TimeVal
	l := relation.New("L", schema)
	l.MustInsert(relation.Row{s("a\x1fb"), s("c"), i(5)})
	l.MustInsert(relation.Row{s("a"), s("b"), i(int64(interval.Forever))})
	l.MustInsert(relation.Row{s("x"), s(""), i(7)})
	r := relation.New("R", tschema)
	r.MustInsert(relation.Row{s("a"), s("b\x1fc"), tv(5)})
	r.MustInsert(relation.Row{s("a"), s("b"), tv(interval.Forever)})
	r.MustInsert(relation.Row{s("x"), s(""), tv(7)})
	r.MustInsert(relation.Row{s("x"), s(""), tv(8)})
	db := NewDB()
	db.MustRegister(l)
	db.MustRegister(r)
	eq := func(c string) algebra.Atom {
		return algebra.Atom{L: algebra.Column("l", c), Op: algebra.EQ, R: algebra.Column("r", c)}
	}
	for _, c := range []struct {
		atoms []algebra.Atom
		rows  int
	}{
		{[]algebra.Atom{eq("A"), eq("B")}, 3},
		{[]algebra.Atom{eq("K")}, 3},
		{[]algebra.Atom{eq("A"), eq("B"), eq("K")}, 2},
	} {
		atoms := c.atoms
		q := &algebra.Join{
			L: &algebra.Scan{Relation: "L", As: "l"}, R: &algebra.Scan{Relation: "R", As: "r"},
			Kind: algebra.KindTheta, Pred: algebra.Predicate{Atoms: atoms},
		}
		want, _, err := Run(db, q, Options{ForceNoHash: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Rows) != c.rows {
			t.Fatalf("%v: nested loop joined %d rows, want %d: %v", atoms, len(want.Rows), c.rows, want.Rows)
		}
		for name, opt := range map[string]Options{"hash": {}, "sort-merge": {PreferMergeJoin: true}} {
			got, _, err := Run(db, q, opt)
			if err != nil {
				t.Fatal(err)
			}
			sameRows(t, fmt.Sprintf("%s on %v", name, atoms), got, want)
		}
	}
}

// overlapProjectionDB is the E25 workload (two Poisson relations, long
// left lifespans over short right ones) at size n.
func overlapProjectionDB(n int) (*DB, *algebra.Project) {
	db := NewDB()
	db.MustRegister(relation.FromTuples("X", workload.Tuples(workload.Config{N: n, Lambda: 1, MeanDur: 25, LongFrac: 0.1, Seed: 1}, "x")))
	db.MustRegister(relation.FromTuples("Y", workload.Tuples(workload.Config{N: n, Lambda: 1, MeanDur: 4, Seed: 2}, "y")))
	col := func(v, c string) algebra.ColRef { return algebra.ColRef{Var: v, Col: c} }
	q := &algebra.Project{
		Input: joinOf(algebra.KindOverlap),
		Cols: []algebra.Output{
			{Name: "XS", From: col("a", "S")}, {Name: "YS", From: col("b", "S")},
			{Name: "ValidFrom", From: col("a", "ValidFrom")}, {Name: "ValidTo", From: col("a", "ValidTo")},
		},
		TSName: "ValidFrom", TEName: "ValidTo", Distinct: true,
	}
	return db, q
}

// A projected join never builds its wide rows: the whole run allocates
// less than the one arena of concatenated rows the join alone used to.
func TestLateMaterializationAllocatesLessThanArena(t *testing.T) {
	db, q := overlapProjectionDB(1000)
	opt := Options{Parallelism: 1}
	joined, _, err := Run(db, q.Input, opt)
	if err != nil {
		t.Fatal(err)
	}
	const cell = 32 // unsafe.Sizeof(value.Value{})
	arena := uint64(len(joined.Rows) * joined.Schema.Arity() * cell)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, _, err := Run(db, q, opt); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= arena {
		t.Fatalf("projected overlap-join allocated %d bytes, not less than the %d-pair arena of %d bytes",
			got, len(joined.Rows), arena)
	}
}
