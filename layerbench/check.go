package main

import (
	"fmt"
	"hash/fnv"
	"strconv"

	"tdb/internal/algebra"
	"tdb/internal/engine"
	"tdb/internal/interval"
	"tdb/internal/optimizer"
	"tdb/internal/quel"
	"tdb/internal/relation"
	"tdb/internal/value"
)

// answer is an order-insensitive fingerprint of a result: its row count
// and the sum of per-row FNV-1a hashes over canonical cells.
type answer struct {
	rows int
	hash uint64
}

// cellOf renders an engine value as the wire carries it: strings as
// strings, chronons and integers as int64.
func cellOf(v value.Value) any {
	if v.Kind() == value.KindString {
		return v.AsString()
	}
	return v.AsInt()
}

// rowHash hashes one row of wire cells; the kind tag keeps "1" and 1
// apart.
func rowHash(cells []any) uint64 {
	h := fnv.New64a()
	var buf []byte
	for _, c := range cells {
		switch v := c.(type) {
		case string:
			buf = append(append(buf[:0], 's'), v...)
		case int64:
			buf = strconv.AppendInt(append(buf[:0], 'i'), v, 10)
		default:
			buf = append(append(buf[:0], '?'), fmt.Sprint(v)...)
		}
		buf = append(buf, 0)
		_, _ = h.Write(buf) // hash.Hash.Write never fails
	}
	return h.Sum64()
}

// fingerprint folds wire rows into an answer.
func fingerprint(rows [][]any) answer {
	a := answer{rows: len(rows)}
	for _, r := range rows {
		a.hash += rowHash(r)
	}
	return a
}

// engineFingerprint folds engine rows into an answer.
func engineFingerprint(rows []relation.Row) answer {
	return fingerprint(wireRows(rows))
}

// bindValues converts wire parameters to engine values the way the server
// decodes them: strings bind strings, integers bind chronons.
func bindValues(params []any) []value.Value {
	out := make([]value.Value, len(params))
	for i, p := range params {
		switch v := p.(type) {
		case string:
			out[i] = value.String_(v)
		case int64:
			out[i] = value.TimeVal(interval.Time(v))
		case int:
			out[i] = value.TimeVal(interval.Time(v))
		}
	}
	return out
}

// frontEnd runs quel parse, translate and parameter binding, the server's
// steps before optimization.
func frontEnd(text string, params []any, db *engine.DB) (algebra.Expr, error) {
	prog, err := quel.Parse(text)
	if err != nil {
		return nil, err
	}
	qs, err := quel.Translate(prog, db)
	if err != nil {
		return nil, err
	}
	if len(qs) != 1 {
		return nil, fmt.Errorf("want one statement, got %d", len(qs))
	}
	return quel.BindParams(&qs[0], bindValues(params))
}

// plan runs the front end and the optimizer with the catalog's integrity
// constraints, as the server does for an ad-hoc query.
func plan(text string, params []any, db *engine.DB) (*optimizer.Result, error) {
	tree, err := frontEnd(text, params, db)
	if err != nil {
		return nil, err
	}
	return optimizer.Optimize(tree, db, optimizer.Options{ICs: db.ChronOrders()})
}

// expectedAnswer is the embedded reference for a query: the same plan run
// by engine.Run directly, with no server or driver in between.
func expectedAnswer(q query, db *engine.DB) (answer, error) {
	res, err := plan(q.text, q.params, db)
	if err != nil {
		return answer{}, fmt.Errorf("%s: %w", q.name, err)
	}
	if res.Contradiction {
		return answer{}, nil
	}
	out, _, err := engine.Run(db, res.Tree, engine.Options{})
	if err != nil {
		return answer{}, fmt.Errorf("%s: %w", q.name, err)
	}
	return engineFingerprint(out.Rows), nil
}
