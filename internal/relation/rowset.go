package relation

import "math/bits"

// RowSet is an insertion-ordered set of rows under codec identity: a row
// is a member when a Row.Identical row is, so Int(5) and TimeVal(5) stay
// distinct. Members are kept in Rows in first-occurrence order; the table
// is open-addressed and linearly probed, and holds int32 indices into
// Rows, so a slot costs four bytes and a hit is decided by comparing
// cells, never by building a key.
type RowSet struct {
	Rows  []Row
	slots []int32 // 1 + index into Rows; 0 marks an empty slot
	shift uint    // 64 - log2(len(slots)): a row's home slot is its hash's top bits
}

// NewRowSet returns an empty set whose table is sized for n members and
// whose members are appended to dst: normally make([]Row, 0, n), or
// rows[:0] to deduplicate rows in place while reading them in order.
func NewRowSet(dst []Row, n int) *RowSet {
	s := &RowSet{Rows: dst}
	s.resize(n)
	return s
}

// resize allocates an empty table for n members at load factor ≤ 1/2.
func (s *RowSet) resize(n int) {
	size := 8
	for size < 2*n {
		size <<= 1
	}
	s.slots = make([]int32, size)
	s.shift = uint(64 - bits.TrailingZeros(uint(size)))
}

// Add inserts r unless an identical row is already a member, and reports
// whether it did. An added row is retained (not copied) in Rows.
func (s *RowSet) Add(r Row) bool {
	if 2*(len(s.Rows)+1) > len(s.slots) {
		s.grow()
	}
	mask := len(s.slots) - 1
	for i := int(HashRow(HashInit, r) >> s.shift); ; i = (i + 1) & mask {
		j := s.slots[i]
		if j == 0 {
			s.Rows = append(s.Rows, r)
			s.slots[i] = int32(len(s.Rows))
			return true
		}
		if s.Rows[j-1].Identical(r) {
			return false
		}
	}
}

// grow doubles the table and re-homes every member.
func (s *RowSet) grow() {
	s.resize(len(s.slots))
	mask := len(s.slots) - 1
	for k, r := range s.Rows {
		i := int(HashRow(HashInit, r) >> s.shift)
		for s.slots[i] != 0 {
			i = (i + 1) & mask
		}
		s.slots[i] = int32(k + 1)
	}
}
