package engine

// Late materialization. A join node returns its matches as index pairs
// into its two inputs (joinPairs), never as concatenated rows. eval turns
// them into rows (materializeJoin) for every consumer that reads rows;
// a projection instead reads the pairs and gathers only its own cells
// from the two sides, and a Distinct projection decides duplicates on the
// pair of its sides' row classes, so a duplicate's cells are never
// gathered at all. Piatov et al.'s cache-efficient sweeping joins defer
// materialization the same way.

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

// projectPairs is the projection onto idx (columns of the join's output
// schema) over a pair-form input. It yields exactly what projecting the
// materialized join would, row for row, but each output row's cells are
// gathered straight from the two sides, and under distinct a duplicate's
// cells are never gathered.
//
// Distinct works on row classes: a side row's class is its projected
// sub-row's index in a RowSet over the side's projected columns, found
// the first time a pair references the row, so rows no pair references
// cost nothing. Two projected rows are identical exactly when both
// sub-rows are, so a pair duplicates an earlier one exactly when the two
// have the same (left class, right class) key, and the first occurrences
// kept are the ones whole-row dedup would keep. A join emits each index
// pair at most once, so a pair whose two classes each hold one referenced
// row can share its key with no other pair: only pairs touching a class
// of several rows enter the key set. The interrupt hook is polled per
// block of pairs, as in the join loops that found them.
func (ex *executor) projectPairs(jp *joinPairs, idx []int, distinct bool) ([]relation.Row, error) {
	var lpos, lcols, rpos, rcols []int
	for i, j := range idx {
		if j < jp.la {
			lpos, lcols = append(lpos, i), append(lcols, j)
		} else {
			rpos, rcols = append(rpos, i), append(rcols, j-jp.la)
		}
	}
	var (
		keys   *pairKeySet
		lc, rc *sideClasses
	)
	if distinct {
		lc = newSideClasses(jp.left, lcols, len(jp.pairs))
		rc = newSideClasses(jp.right, rcols, len(jp.pairs))
		for k, p := range jp.pairs {
			if k%interruptEvery == 0 {
				if err := ex.checkInterrupt(); err != nil {
					return nil, err
				}
			}
			lc.classify(p.l)
			rc.classify(p.r)
		}
		shared := 0
		for _, p := range jp.pairs {
			if lc.shared(p.l) || rc.shared(p.r) {
				shared++
			}
		}
		keys = newPairKeySet(shared)
	}
	w := len(idx)
	out := make([]relation.Row, 0, len(jp.pairs))
	var slab []value.Value // cells of the rows still to be emitted
	for k, p := range jp.pairs {
		if k%interruptEvery == 0 {
			if err := ex.checkInterrupt(); err != nil {
				return nil, err
			}
		}
		if keys != nil && (lc.shared(p.l) || rc.shared(p.r)) &&
			!keys.add(uint64(lc.ids[p.l])<<32|uint64(rc.ids[p.r])) {
			continue
		}
		if len(slab) < w {
			slab = make([]value.Value, min(projectSlabRows, len(jp.pairs)-k)*w)
		}
		row := relation.Row(slab[:w:w])
		slab = slab[w:]
		lrow, rrow := jp.left.row(p.l), jp.right.row(p.r)
		//tdb:hotpath
		for i, c := range lcols {
			row[lpos[i]] = lrow[c]
		}
		//tdb:hotpath
		for i, c := range rcols {
			row[rpos[i]] = rrow[c]
		}
		out = append(out, row)
	}
	return out, nil
}

// sideClasses holds the row classes of one join side under a Distinct
// projection's columns of that side (none: every row is in one class).
type sideClasses struct {
	side pairSide
	set  *relation.RowSet
	ids  []int32 // 1 + class of each side row; 0 until first referenced
	rows []int32 // referenced rows in each class
}

func newSideClasses(side pairSide, cols []int, pairs int) *sideClasses {
	n := min(pairs, side.len())
	if len(cols) == 0 {
		n = 1
	}
	return &sideClasses{
		side: side,
		set:  relation.NewRowSetOn(make([]relation.Row, 0, n), n, cols),
		ids:  make([]int32, side.len()),
	}
}

// classify finds side row i's class the first time it is referenced.
func (c *sideClasses) classify(i int32) {
	if c.ids[i] != 0 {
		return
	}
	k, added := c.set.Insert(c.side.row(i))
	if added {
		c.rows = append(c.rows, 0)
	}
	c.rows[k]++
	c.ids[i] = int32(k + 1)
}

// shared reports whether classified row i's class holds other rows too.
func (c *sideClasses) shared(i int32) bool { return c.rows[c.ids[i]-1] > 1 }

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
