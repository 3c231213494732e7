package quel

import (
	"fmt"
	"strconv"
	"strings"

	"tdb/internal/algebra"
	"tdb/internal/interval"
	"tdb/internal/value"
)

// Program is a parsed sequence of statements.
type Program struct {
	Stmts []Stmt
}

// Stmt is a range or retrieve statement.
type Stmt interface{ isStmt() }

// RangeStmt binds a range variable to a relation:
// "range of f1 is Faculty".
type RangeStmt struct {
	Var      string
	Relation string
}

func (*RangeStmt) isStmt() {}

// Target is one output column of a retrieve: "Name=f1.Name", bare
// "f1.Name" (the column keeps its own name), or an aggregate
// "total=sum(e.Salary)" / "n=count(e)". Aggregates group the retrieve by
// its plain targets.
type Target struct {
	Name string
	From algebra.ColRef
	// IsAgg marks an aggregate target; Agg is its function. For count
	// the From column may be just a range variable.
	IsAgg bool
	Agg   algebra.AggKind
}

var aggNames = map[string]algebra.AggKind{
	"count": algebra.AggCount,
	"sum":   algebra.AggSum,
	"min":   algebra.AggMin,
	"max":   algebra.AggMax,
}

// RetrieveStmt is
//
//	retrieve [into R] (targets) [valid from col to col] [where pred] [when pred]
//
// matching the TQuel shape of the paper's footnote 5: the valid clause
// assembles the result lifespan from two timestamp columns, and "when"
// carries the temporal conjuncts (it is conjoined with "where"). Set
// semantics (duplicate elimination) follow the paper's model of a temporal
// relation as a set of tuples.
type RetrieveStmt struct {
	Into    string
	Targets []Target
	Where   algebra.Predicate
	// HasValid marks an explicit "valid from … to …" clause.
	HasValid           bool
	ValidFrom, ValidTo algebra.ColRef
}

func (*RetrieveStmt) isStmt() {}

// SubscribeStmt registers a retrieve as a standing query over live
// ingestion:
//
//	subscribe NAME (targets) [valid from col to col] [where pred]
//
// The body is a full retrieve (minus "into" — deltas stream to the
// subscriber instead of a stored relation); the name addresses the
// standing query for polling and deregistration.
type SubscribeStmt struct {
	Name     string
	Retrieve *RetrieveStmt
}

func (*SubscribeStmt) isStmt() {}

// temporalOps maps infix operator names to Figure 2 relationships; overlap
// is the general TQuel operator of footnote 6.
var temporalOps = map[string]struct {
	rel     interval.Relationship
	general bool
}{
	"overlap":       {general: true},
	"equal":         {rel: interval.RelEqual},
	"meets":         {rel: interval.RelMeets},
	"met-by":        {rel: interval.RelMetBy},
	"starts":        {rel: interval.RelStarts},
	"started-by":    {rel: interval.RelStartedBy},
	"finishes":      {rel: interval.RelFinishes},
	"finished-by":   {rel: interval.RelFinishedBy},
	"during":        {rel: interval.RelDuring},
	"contains":      {rel: interval.RelContains},
	"overlaps":      {rel: interval.RelOverlaps},
	"overlapped-by": {rel: interval.RelOverlappedBy},
	"before":        {rel: interval.RelBefore},
	"after":         {rel: interval.RelAfter},
}

var cmpOps = map[string]algebra.CmpOp{
	"=": algebra.EQ, "!=": algebra.NE,
	"<": algebra.LT, "<=": algebra.LE,
	">": algebra.GT, ">=": algebra.GE,
}

type parser struct {
	toks []token
	i    int
	src  string
}

// Parse parses a program.
func Parse(src string) (*Program, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: src}
	prog := &Program{}
	for !p.at(tokEOF, "") {
		kw, err := p.keyword("range", "retrieve", "subscribe")
		if err != nil {
			return nil, err
		}
		var stmt Stmt
		switch kw {
		case "range":
			stmt, err = p.rangeStmt()
		case "subscribe":
			stmt, err = p.subscribeStmt()
		default:
			stmt, err = p.retrieveStmt()
		}
		if err != nil {
			return nil, err
		}
		prog.Stmts = append(prog.Stmts, stmt)
	}
	return prog, nil
}

func (p *parser) peek() token { return p.toks[p.i] }

func (p *parser) take() token {
	t := p.toks[p.i]
	if t.kind != tokEOF {
		p.i++
	}
	return t
}

func (p *parser) at(kind tokenKind, text string) bool {
	t := p.peek()
	if t.kind != kind {
		return false
	}
	if text == "" {
		return true
	}
	if kind == tokIdent {
		return strings.EqualFold(t.text, text)
	}
	return t.text == text
}

func (p *parser) errf(format string, args ...any) error {
	t := p.peek()
	got := t.text
	if t.kind == tokEOF {
		got = "end of input"
	}
	return fmt.Errorf("quel: line %d: %s (at %q)", t.line, fmt.Sprintf(format, args...), got)
}

// keyword consumes one of the listed keywords (case-insensitive).
func (p *parser) keyword(names ...string) (string, error) {
	for _, n := range names {
		if p.at(tokIdent, n) {
			p.take()
			return n, nil
		}
	}
	return "", p.errf("expected %s", strings.Join(names, " or "))
}

func (p *parser) symbol(s string) error {
	if p.at(tokSymbol, s) {
		p.take()
		return nil
	}
	return p.errf("expected %q", s)
}

func (p *parser) ident() (string, error) {
	if p.peek().kind != tokIdent {
		return "", p.errf("expected identifier")
	}
	return p.take().text, nil
}

// rangeStmt parses "of VAR is REL" (after the consumed "range").
func (p *parser) rangeStmt() (*RangeStmt, error) {
	if _, err := p.keyword("of"); err != nil {
		return nil, err
	}
	v, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.keyword("is"); err != nil {
		return nil, err
	}
	rel, err := p.ident()
	if err != nil {
		return nil, err
	}
	return &RangeStmt{Var: v, Relation: rel}, nil
}

// subscribeStmt parses "NAME (targets) [valid …] [where pred]" (after the
// consumed "subscribe") by delegating the body to retrieveStmt.
func (p *parser) subscribeStmt() (*SubscribeStmt, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	st, err := p.retrieveStmt()
	if err != nil {
		return nil, err
	}
	if st.Into != "" {
		return nil, fmt.Errorf("quel: subscribe %s: \"into\" is not allowed — deltas stream to the subscriber", name)
	}
	// Standing queries are admitted once against their state
	// characterization; a placeholder would make the admission decision
	// depend on a value that is not known yet, so parameters are not yet
	// legal anywhere in a subscribe.
	for _, a := range st.Where.Atoms {
		for _, o := range []algebra.Operand{a.L, a.R} {
			if o.Param > 0 {
				return nil, fmt.Errorf("quel: subscribe %s: parameter $%d is not legal in a subscribe statement (standing queries are admitted once; bind values before subscribing)", name, o.Param)
			}
		}
	}
	return &SubscribeStmt{Name: name, Retrieve: st}, nil
}

// retrieveStmt parses "[into R] (targets) [where pred]".
func (p *parser) retrieveStmt() (*RetrieveStmt, error) {
	st := &RetrieveStmt{}
	if p.at(tokIdent, "into") {
		p.take()
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		st.Into = name
	}
	if err := p.symbol("("); err != nil {
		return nil, err
	}
	for {
		tgt, err := p.target()
		if err != nil {
			return nil, err
		}
		st.Targets = append(st.Targets, tgt)
		if p.at(tokSymbol, ",") {
			p.take()
			continue
		}
		break
	}
	if err := p.symbol(")"); err != nil {
		return nil, err
	}
	if p.at(tokIdent, "valid") {
		p.take()
		if _, err := p.keyword("from"); err != nil {
			return nil, err
		}
		from, err := p.colRef()
		if err != nil {
			return nil, err
		}
		if _, err := p.keyword("to"); err != nil {
			return nil, err
		}
		to, err := p.colRef()
		if err != nil {
			return nil, err
		}
		st.HasValid, st.ValidFrom, st.ValidTo = true, from, to
	}
	for p.at(tokIdent, "where") || p.at(tokIdent, "when") {
		p.take()
		pred, err := p.conjunction()
		if err != nil {
			return nil, err
		}
		st.Where = st.Where.And(pred)
	}
	return st, nil
}

// target parses "Name=var.Col", "Name=sum(var.Col)", "Name=count(var)",
// or bare "var.Col".
func (p *parser) target() (Target, error) {
	first, err := p.ident()
	if err != nil {
		return Target{}, err
	}
	if p.at(tokSymbol, "=") {
		p.take()
		// Aggregate: IDENT "(" colref ")" with IDENT an aggregate name.
		if p.peek().kind == tokIdent && p.i+1 < len(p.toks) &&
			p.toks[p.i+1].kind == tokSymbol && p.toks[p.i+1].text == "(" {
			if kind, ok := aggNames[strings.ToLower(p.peek().text)]; ok {
				p.take() // aggregate name
				p.take() // "("
				ref, err := p.colRef()
				if err != nil {
					return Target{}, err
				}
				if err := p.symbol(")"); err != nil {
					return Target{}, err
				}
				return Target{Name: first, From: ref, IsAgg: true, Agg: kind}, nil
			}
		}
		ref, err := p.colRef()
		if err != nil {
			return Target{}, err
		}
		return Target{Name: first, From: ref}, nil
	}
	if p.at(tokSymbol, ".") {
		p.take()
		col, err := p.ident()
		if err != nil {
			return Target{}, err
		}
		return Target{Name: col, From: algebra.ColRef{Var: first, Col: col}}, nil
	}
	return Target{Name: first, From: algebra.ColRef{Col: first}}, nil
}

// colRef parses "var.Col" or a bare column.
func (p *parser) colRef() (algebra.ColRef, error) {
	first, err := p.ident()
	if err != nil {
		return algebra.ColRef{}, err
	}
	if p.at(tokSymbol, ".") {
		p.take()
		col, err := p.ident()
		if err != nil {
			return algebra.ColRef{}, err
		}
		return algebra.ColRef{Var: first, Col: col}, nil
	}
	return algebra.ColRef{Col: first}, nil
}

// conjunction parses "term (and term)*".
func (p *parser) conjunction() (algebra.Predicate, error) {
	var pred algebra.Predicate
	for {
		if err := p.term(&pred); err != nil {
			return pred, err
		}
		if p.at(tokIdent, "and") {
			p.take()
			continue
		}
		return pred, nil
	}
}

// term parses "(v1 OP v2)" temporal sugar, a parenthesized conjunction, or
// a comparison atom.
func (p *parser) term(pred *algebra.Predicate) error {
	if p.at(tokSymbol, "(") {
		// Lookahead: "(ident temporalOp ident)" is sugar; otherwise a
		// parenthesized conjunction.
		save := p.i
		p.take()
		if p.peek().kind == tokIdent {
			v1 := p.take().text
			if p.peek().kind == tokIdent {
				opName := strings.ToLower(p.peek().text)
				if op, ok := temporalOps[opName]; ok {
					p.take()
					v2, err := p.ident()
					if err != nil {
						return err
					}
					if err := p.symbol(")"); err != nil {
						return err
					}
					pred.Temporal = append(pred.Temporal, algebra.TemporalAtom{
						L: v1, R: v2, Rel: op.rel, General: op.general,
					})
					return nil
				}
			}
			_ = v1
		}
		// Not sugar: rewind and parse "( conjunction )".
		p.i = save
		p.take() // "("
		inner, err := p.conjunction()
		if err != nil {
			return err
		}
		if err := p.symbol(")"); err != nil {
			return err
		}
		*pred = pred.And(inner)
		return nil
	}

	l, err := p.operand()
	if err != nil {
		return err
	}
	t := p.peek()
	op, ok := cmpOps[t.text]
	if t.kind != tokSymbol || !ok {
		return p.errf("expected comparison operator")
	}
	p.take()
	r, err := p.operand()
	if err != nil {
		return err
	}
	pred.Atoms = append(pred.Atoms, algebra.Atom{L: l, Op: op, R: r})
	return nil
}

// MaxParams is the largest placeholder index a statement may use.
const MaxParams = 65535

// operand parses a column reference, string, number, "forever", or a
// "$1"-style placeholder.
func (p *parser) operand() (algebra.Operand, error) {
	t := p.peek()
	switch t.kind {
	case tokParam:
		p.take()
		n, err := strconv.Atoi(t.text)
		if err != nil || n < 1 {
			return algebra.Operand{}, fmt.Errorf("quel: line %d: bad parameter $%s: indexes start at $1", t.line, t.text)
		}
		// Translation keeps a slot for every index up to the largest, so
		// an unbounded index would let one statement ask for any memory.
		if n > MaxParams {
			return algebra.Operand{}, fmt.Errorf("quel: line %d: bad parameter $%s: indexes end at $%d", t.line, t.text, MaxParams)
		}
		return algebra.Param(n), nil
	case tokString:
		p.take()
		return algebra.Const(value.String_(t.text)), nil
	case tokNumber:
		p.take()
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return algebra.Operand{}, p.errf("bad number %q", t.text)
		}
		return algebra.Const(value.TimeVal(interval.Time(n))), nil
	case tokIdent:
		if strings.EqualFold(t.text, "forever") {
			p.take()
			return algebra.Const(value.TimeVal(interval.Forever)), nil
		}
		ref, err := p.colRef()
		if err != nil {
			return algebra.Operand{}, err
		}
		return algebra.Operand{Col: ref}, nil
	}
	return algebra.Operand{}, p.errf("expected operand")
}
