package engine

import (
	"bytes"
	"math/rand"
	"testing"

	"tdb/internal/algebra"
	"tdb/internal/interval"
	"tdb/internal/relation"
	"tdb/internal/value"
)

// firstOccurrences is the quadratic exact-equality reference for set
// semantics: a row survives when no earlier row has the same codec bytes.
func firstOccurrences(rows []relation.Row) []relation.Row {
	var out []relation.Row
	for _, r := range rows {
		dup := false
		for _, o := range out {
			if bytes.Equal(relation.AppendRow(nil, o), relation.AppendRow(nil, r)) {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, r)
		}
	}
	return out
}

// The Distinct projection and Relation.Dedup keep exactly the first
// occurrences, in input order, over random rows with heavy duplication.
func TestDistinctProjectionKeepsFirstOccurrences(t *testing.T) {
	schema := relation.MustSchema([]relation.Column{
		{Name: "A", Kind: value.KindString},
		{Name: "B", Kind: value.KindInt},
		{Name: "ValidFrom", Kind: value.KindTime},
		{Name: "ValidTo", Kind: value.KindTime},
	}, 2, 3)
	strs := []string{"", "a", "ab", "Ünï"}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 60; trial++ {
		rel := relation.New("R", schema)
		for i, n := 0, rng.Intn(700); i < n; i++ {
			ts := interval.Time(rng.Intn(3))
			te := ts + 1 + interval.Time(rng.Intn(2))
			if rng.Intn(8) == 0 {
				te = interval.Forever
			}
			rel.MustInsert(relation.Row{
				value.String_(strs[rng.Intn(len(strs))]), value.Int(int64(rng.Intn(3) - 1)),
				value.TimeVal(ts), value.TimeVal(te),
			})
		}
		db := NewDB()
		db.MustRegister(rel)
		col := func(c string) algebra.ColRef { return algebra.ColRef{Var: "R", Col: c} }
		proj := func(distinct bool) *algebra.Project {
			return &algebra.Project{
				Input: &algebra.Scan{Relation: "R"},
				Cols: []algebra.Output{
					{Name: "A", From: col("A")}, {Name: "B", From: col("B")}, {Name: "ValidTo", From: col("ValidTo")},
				},
				Distinct: distinct,
			}
		}
		all, _, err := Run(db, proj(false), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(all.Rows) != len(rel.Rows) {
			t.Fatalf("trial %d: plain projection kept %d of %d rows", trial, len(all.Rows), len(rel.Rows))
		}
		want := firstOccurrences(all.Rows)
		distinct, _, err := Run(db, proj(true), Options{})
		if err != nil {
			t.Fatal(err)
		}
		dedup := all.Clone()
		dedup.Dedup()
		for name, got := range map[string][]relation.Row{"Distinct": distinct.Rows, "Dedup": dedup.Rows} {
			if len(got) != len(want) {
				t.Fatalf("trial %d %s: %d rows, want %d", trial, name, len(got), len(want))
			}
			for i := range want {
				if !got[i].Identical(want[i]) {
					t.Fatalf("trial %d %s: row %d = %v, want %v", trial, name, i, got[i], want[i])
				}
			}
		}
	}
}
