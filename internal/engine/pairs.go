package engine

// Late materialization. A join node returns its matches as index pairs
// into its two inputs (joinPairs), never as concatenated rows. eval turns
// them into rows (materializeJoin) for every consumer that reads rows;
// a projection instead reads the pairs and keeps its answer factored
// (Factored): each side's class sub-rows plus the kept class pairs, with
// a Distinct projection deciding duplicates on the class pair. Only a
// consumer of rows materializes that; at the query root the factored
// answer travels on to the sink (Execute, Answer), which may send the
// classes instead of rows. Piatov et al.'s cache-efficient sweeping joins
// defer materialization the same way.

import (
	"math/bits"

	"tdb/internal/relation"
	"tdb/internal/value"
)

// pairIdx is one join match as (left row, right row) indexes into the
// join's two inputs.
type pairIdx struct {
	l, r int32
}

// pairSide is one input of a pair-form join, the rows its indexes
// address: the sorted spanned inputs of a stream join, or plain rows.
type pairSide struct {
	rows []relation.Row
	sp   []spanned
}

func (s pairSide) row(i int32) relation.Row {
	if s.sp != nil {
		return s.sp[i].row
	}
	return s.rows[i]
}

func (s pairSide) len() int {
	if s.sp != nil {
		return len(s.sp)
	}
	return len(s.rows)
}

// joinPairs is a join's output before materialization: the matches in
// the join's emission order.
type joinPairs struct {
	left, right pairSide
	la          int // left arity: output columns below it come from the left
	pairs       []pairIdx
}

// materializeJoin builds the output rows of a join from its matched index
// pairs in one step: a single value arena sized to the exact output,
// sliced into full-capacity rows so later appends can never alias. Returns
// nil for no pairs, matching the row path's nil-on-empty convention.
func materializeJoin(jp *joinPairs) []relation.Row {
	pairs := jp.pairs
	if len(pairs) == 0 {
		return nil
	}
	la := len(jp.left.row(pairs[0].l))
	w := la + len(jp.right.row(pairs[0].r))
	rows := make([]relation.Row, len(pairs))
	arena := make([]value.Value, len(pairs)*w)
	//tdb:hotpath
	for i, p := range pairs {
		row := arena[i*w : i*w+w : i*w+w]
		copy(row, jp.left.row(p.l))
		copy(row[la:], jp.right.row(p.r))
		rows[i] = row
	}
	return rows
}

// Factored is a join projection's answer before materialization. Each
// side's referenced rows fall into classes: one per distinct sub-row of
// the side's projected cells under a Distinct projection, one per
// referenced row otherwise, and one in all for a side no column is
// projected from. Classes holds each side's class sub-rows; output row k
// is the k-th kept (left class, right class) pair with its cells placed
// by Cols. A sink that reads the classes sends each distinct cell once.
type Factored struct {
	// Cols[i] is where output column i comes from. A side's cells are
	// numbered in output order, so Cols lists each side's 0, 1, 2, ….
	Cols    []SideCol
	Classes [2][]relation.Row
	pairs   []pairIdx // class pairs, in the join's emission order
}

// SideCol places one output column: cell Cell of the class sub-rows of
// side Side (0 left, 1 right).
type SideCol struct{ Side, Cell int }

// Len is the number of output rows.
func (f *Factored) Len() int { return len(f.pairs) }

// Pair is output row k as indexes into Classes[0] and Classes[1].
func (f *Factored) Pair(k int) (l, r int32) {
	p := f.pairs[k]
	return p.l, p.r
}

// materialize builds the output rows from the class sub-rows in one
// value arena: the one builder of projected join rows.
func (f *Factored) materialize() []relation.Row {
	var pos [2][]int // output column of each side cell
	for i, c := range f.Cols {
		pos[c.Side] = append(pos[c.Side], i)
	}
	w := len(f.Cols)
	out := make([]relation.Row, len(f.pairs))
	arena := make([]value.Value, len(f.pairs)*w)
	//tdb:hotpath
	for k, p := range f.pairs {
		row := relation.Row(arena[k*w : k*w+w : k*w+w])
		for i, c := range f.Classes[0][p.l] {
			row[pos[0][i]] = c
		}
		for i, c := range f.Classes[1][p.r] {
			row[pos[1][i]] = c
		}
		out[k] = row
	}
	return out
}

// projectPairs is the projection onto idx (columns of the join's output
// schema) over a pair-form input. Materialized, it yields exactly what
// projecting the materialized join would, row for row, but no output row
// is built here: each side row is classified the first time a pair
// references it, so rows no pair references cost nothing, and the pairs
// are rewritten in place as class pairs.
//
// Distinct works on the classes: two projected rows are identical exactly
// when both sub-rows are, so a pair duplicates an earlier one exactly when
// the two have the same (left class, right class) key, and the first
// occurrences kept are the ones whole-row dedup would keep. A join emits
// each index pair at most once, so a pair whose two classes each hold one
// referenced row can share its key with no other pair: only pairs
// touching a class of several rows enter the key set. Without Distinct
// nothing is hashed. The interrupt hook is polled per block of pairs, as
// in the join loops that found them.
func (ex *executor) projectPairs(jp *joinPairs, idx []int, distinct bool) (*Factored, error) {
	f := &Factored{Cols: make([]SideCol, len(idx))}
	var cols [2][]int
	for i, j := range idx {
		s := 0
		if j >= jp.la {
			s, j = 1, j-jp.la
		}
		f.Cols[i] = SideCol{Side: s, Cell: len(cols[s])}
		cols[s] = append(cols[s], j)
	}
	lc := newSideClasses(jp.left, cols[0], len(jp.pairs), distinct)
	rc := newSideClasses(jp.right, cols[1], len(jp.pairs), distinct)
	for k, p := range jp.pairs {
		if k%interruptEvery == 0 {
			if err := ex.checkInterrupt(); err != nil {
				return nil, err
			}
		}
		lc.classify(p.l)
		rc.classify(p.r)
	}
	var keys *pairKeySet
	if distinct {
		shared := 0
		for _, p := range jp.pairs {
			if lc.shared(p.l) || rc.shared(p.r) {
				shared++
			}
		}
		keys = newPairKeySet(shared)
	}
	kept := jp.pairs[:0]
	for k, p := range jp.pairs {
		if k%interruptEvery == 0 {
			if err := ex.checkInterrupt(); err != nil {
				return nil, err
			}
		}
		l, r := lc.ids[p.l], rc.ids[p.r]
		if keys != nil && (lc.shared(p.l) || rc.shared(p.r)) && !keys.add(uint64(l)<<32|uint64(r)) {
			continue
		}
		kept = append(kept, pairIdx{l: l - 1, r: r - 1})
	}
	f.pairs = kept
	f.Classes = [2][]relation.Row{lc.subRows(), rc.subRows()}
	return f, nil
}

// sideClasses holds the row classes of one join side under a projection's
// columns of that side.
type sideClasses struct {
	side pairSide
	cols []int
	set  *relation.RowSet // Distinct with columns: classes by sub-row
	ids  []int32          // 1 + class of each side row; 0 until first referenced
	reps []int32          // the first referenced row of each class
	size []int32          // referenced rows in each class
}

func newSideClasses(side pairSide, cols []int, pairs int, distinct bool) *sideClasses {
	c := &sideClasses{side: side, cols: cols, ids: make([]int32, side.len())}
	if distinct && len(cols) > 0 {
		n := min(pairs, side.len())
		c.set = relation.NewRowSetOn(make([]relation.Row, 0, n), n, cols)
	}
	return c
}

// classify finds side row i's class the first time it is referenced.
func (c *sideClasses) classify(i int32) {
	if c.ids[i] != 0 {
		return
	}
	k := len(c.reps)
	switch {
	case len(c.cols) == 0 && k > 0:
		k = 0
	case c.set != nil:
		k, _ = c.set.Insert(c.side.row(i))
	}
	if k == len(c.reps) {
		c.reps = append(c.reps, i)
		c.size = append(c.size, 0)
	}
	c.size[k]++
	c.ids[i] = int32(k + 1)
}

// shared reports whether classified row i's class holds other rows too.
func (c *sideClasses) shared(i int32) bool { return c.size[c.ids[i]-1] > 1 }

// subRows projects each class's first row onto the side's columns.
func (c *sideClasses) subRows() []relation.Row {
	w := len(c.cols)
	out := make([]relation.Row, len(c.reps))
	arena := make([]value.Value, len(c.reps)*w)
	for k, i := range c.reps {
		row := relation.Row(arena[k*w : k*w+w : k*w+w])
		src := c.side.row(i)
		for j, col := range c.cols {
			row[j] = src[col]
		}
		out[k] = row
	}
	return out
}

// pairKeySet is an open-addressed, linearly probed set of nonzero 64-bit
// keys, sized for every key it will receive at load factor ≤ 1/2.
type pairKeySet struct {
	slots []uint64 // 0 marks an empty slot
	shift uint     // 64 - log2(len(slots))
}

func newPairKeySet(n int) *pairKeySet {
	size := 8
	for size < 2*n {
		size <<= 1
	}
	return &pairKeySet{slots: make([]uint64, size), shift: uint(64 - bits.TrailingZeros(uint(size)))}
}

// add inserts k and reports whether it was absent.
func (s *pairKeySet) add(k uint64) bool {
	mask := len(s.slots) - 1
	//tdb:hotpath
	for i := int(relation.Mix64(k) >> s.shift); ; i = (i + 1) & mask {
		switch s.slots[i] {
		case 0:
			s.slots[i] = k
			return true
		case k:
			return false
		}
	}
}
