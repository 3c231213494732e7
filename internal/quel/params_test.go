package quel

import (
	"strings"
	"testing"

	"tdb/internal/algebra"
	"tdb/internal/interval"
	"tdb/internal/relation"
	"tdb/internal/value"
)

type paramSource map[string]*relation.Schema

func (s paramSource) SchemaOf(name string) (*relation.Schema, error) {
	if sch, ok := s[name]; ok {
		return sch, nil
	}
	return nil, &unknownRelError{name}
}

type unknownRelError struct{ name string }

func (e *unknownRelError) Error() string { return "unknown relation " + e.name }

func facultySource() paramSource {
	return paramSource{"Faculty": relation.MustSchema([]relation.Column{
		{Name: "Name", Kind: value.KindString},
		{Name: "Rank", Kind: value.KindString},
		{Name: "ValidFrom", Kind: value.KindTime},
		{Name: "ValidTo", Kind: value.KindTime},
	}, 2, 3)}
}

const paramQuery = `
range of f is Faculty
retrieve (f.Name) where f.Rank=$1 and f.ValidFrom>=$2
`

func TestParseAndTranslateParams(t *testing.T) {
	prog, err := Parse(paramQuery)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	qs, err := Translate(prog, facultySource())
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	q := qs[0]
	if q.NumParams != 2 {
		t.Fatalf("NumParams = %d, want 2", q.NumParams)
	}
	if !q.KindsKnown[0] || q.ParamKinds[0] != value.KindString {
		t.Errorf("$1 expectation = %v known=%v, want string", q.ParamKinds[0], q.KindsKnown[0])
	}
	if !q.KindsKnown[1] || q.ParamKinds[1] != value.KindTime {
		t.Errorf("$2 expectation = %v known=%v, want time", q.ParamKinds[1], q.KindsKnown[1])
	}
}

func TestBindParamsSubstitutes(t *testing.T) {
	prog, err := Parse(paramQuery)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	qs, err := Translate(prog, facultySource())
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	bound, err := BindParams(&qs[0], []value.Value{
		value.String_("Full"), value.TimeVal(interval.Time(10)),
	})
	if err != nil {
		t.Fatalf("bind: %v", err)
	}
	s := algebra.Format(bound)
	if !strings.Contains(s, `"Full"`) || strings.Contains(s, "$1") {
		t.Errorf("bound tree still holds placeholders:\n%s", s)
	}
	// The cached tree is untouched: a second bind with different values
	// must not see the first bind's constants.
	if orig := algebra.Format(qs[0].Tree); !strings.Contains(orig, "$1") {
		t.Errorf("original tree mutated by binding:\n%s", orig)
	}
	bound2, err := BindParams(&qs[0], []value.Value{
		value.String_("Assistant"), value.TimeVal(interval.Time(99)),
	})
	if err != nil {
		t.Fatalf("second bind: %v", err)
	}
	if s2 := algebra.Format(bound2); !strings.Contains(s2, `"Assistant"`) || strings.Contains(s2, "Full") {
		t.Errorf("rebinding leaked earlier values:\n%s", s2)
	}
}

func TestBindParamsErrors(t *testing.T) {
	prog, err := Parse(paramQuery)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	qs, err := Translate(prog, facultySource())
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	if _, err := BindParams(&qs[0], []value.Value{value.String_("Full")}); err == nil {
		t.Error("bind with too few values succeeded")
	}
	if _, err := BindParams(&qs[0], []value.Value{
		value.String_("Full"), value.TimeVal(1), value.TimeVal(2),
	}); err == nil {
		t.Error("bind with too many values succeeded")
	}
	// $1 is compared against a string column; a time value can never
	// compare and is rejected at bind time.
	if _, err := BindParams(&qs[0], []value.Value{
		value.TimeVal(3), value.TimeVal(4),
	}); err == nil {
		t.Error("bind with a kind-mismatched value succeeded")
	}
}

func TestParamsIllegalInSubscribe(t *testing.T) {
	_, err := Parse(`
range of f is Faculty
subscribe watch (f.Name) where f.Rank=$1
`)
	if err == nil {
		t.Fatal("subscribe with a placeholder parsed")
	}
	if !strings.Contains(err.Error(), "not legal in a subscribe") {
		t.Errorf("error does not name the restriction: %v", err)
	}
}

func TestParamLexErrors(t *testing.T) {
	if _, err := Parse(`range of f is Faculty
retrieve (f.Name) where f.Rank=$`); err == nil {
		t.Error("bare $ lexed")
	}
	if _, err := Parse(`range of f is Faculty
retrieve (f.Name) where f.Rank=$0`); err == nil {
		t.Error("$0 accepted; indexes start at $1")
	}
	// Translation holds a slot per index up to the largest, so a huge
	// index is refused at parse time rather than allocated.
	prog, err := Parse(`range of f is Faculty
retrieve (f.Name) where f.Rank=$65535 and f.Name=$65536`)
	if err == nil || !strings.Contains(err.Error(), "indexes end at $65535") {
		t.Errorf("$65536: %v, want a parse error", err)
	}
	if prog, err = Parse(`range of f is Faculty
retrieve (f.Name) where f.Rank=$65535`); err != nil {
		t.Fatal(err)
	}
	qs, err := Translate(prog, facultySource())
	if err != nil {
		t.Fatal(err)
	}
	if qs[0].NumParams != MaxParams {
		t.Errorf("$65535: %d parameters", qs[0].NumParams)
	}
}

func TestParamConflictingKindsRejected(t *testing.T) {
	_, err := Parse(`
range of f is Faculty
retrieve (f.Name) where f.Rank=$1 and f.ValidFrom=$1
`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog, _ := Parse(`
range of f is Faculty
retrieve (f.Name) where f.Rank=$1 and f.ValidFrom=$1
`)
	if _, err := Translate(prog, facultySource()); err == nil {
		t.Error("conflicting kind expectations for one placeholder accepted")
	}
}

func TestParamGapCountsThroughMaxIndex(t *testing.T) {
	prog, err := Parse(`
range of f is Faculty
retrieve (f.Name) where f.Rank=$2
`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	qs, err := Translate(prog, facultySource())
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	if qs[0].NumParams != 2 {
		t.Fatalf("NumParams = %d, want 2 (indexes run through the highest placeholder)", qs[0].NumParams)
	}
}
