package relation

import "math/bits"

// RowSet is an insertion-ordered set of rows under codec identity: a row
// is a member when a Row.Identical row is, so Int(5) and TimeVal(5) stay
// distinct. Members are kept in Rows in first-occurrence order; the table
// is open-addressed and linearly probed, and holds int32 indices into
// Rows, so a slot costs four bytes and a hit is decided by comparing
// cells, never by building a key.
//
// A set made by NewRowSetOn takes identity over a projection instead:
// two rows are the same member when their cells at the set's columns are
// identical, and Rows keeps the first full row of each class.
type RowSet struct {
	Rows  []Row
	slots []int32 // 1 + index into Rows; 0 marks an empty slot
	shift uint    // 64 - log2(len(slots)): see home
	on    []int   // the projection identity is taken over, when proj
	proj  bool
}

// NewRowSet returns an empty set whose table is sized for n members and
// whose members are appended to dst: normally make([]Row, 0, n), or
// rows[:0] to deduplicate rows in place while reading them in order.
func NewRowSet(dst []Row, n int) *RowSet {
	s := &RowSet{Rows: dst}
	s.resize(n)
	return s
}

// NewRowSetOn returns an empty set, sized for n members, whose identity is
// the projection of each row onto cols (in that order, repeats allowed):
// the class of a row is the set of rows whose projected sub-rows are
// identical, and the projection is never built.
func NewRowSetOn(dst []Row, n int, cols []int) *RowSet {
	s := &RowSet{Rows: dst, on: cols, proj: true}
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

// Mix64 is murmur3's 64-bit finalizer: every input bit reaches every
// output bit. FNV-1a alone leaves a row's last bytes almost only in the
// low bits, so a table homed on raw top bits would chain rows that differ
// only in a trailing string.
func Mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// home is the slot a row with hash h probes first.
func (s *RowSet) home(h uint64) int { return int(Mix64(h) >> s.shift) }

// hash is the row's hash under the set's identity.
func (s *RowSet) hash(r Row) uint64 {
	if s.proj {
		return hashRowOn(HashInit, r, s.on)
	}
	return HashRow(HashInit, r)
}

// same reports whether a and b are the same member.
func (s *RowSet) same(a, b Row) bool {
	if !s.proj {
		return a.Identical(b)
	}
	for _, c := range s.on {
		if a[c] != b[c] {
			return false
		}
	}
	return true
}

// Add inserts r unless an identical row is already a member, and reports
// whether it did. An added row is retained (not copied) in Rows.
func (s *RowSet) Add(r Row) bool {
	_, added := s.Insert(r)
	return added
}

// Insert is Add that also returns the member's index in Rows: r's own
// when added, the identical member's otherwise.
func (s *RowSet) Insert(r Row) (int, bool) {
	if 2*(len(s.Rows)+1) > len(s.slots) {
		s.grow()
	}
	mask := len(s.slots) - 1
	for i := s.home(s.hash(r)); ; i = (i + 1) & mask {
		j := s.slots[i]
		if j == 0 {
			s.Rows = append(s.Rows, r)
			s.slots[i] = int32(len(s.Rows))
			return len(s.Rows) - 1, true
		}
		if s.same(s.Rows[j-1], r) {
			return int(j - 1), false
		}
	}
}

// grow doubles the table and re-homes every member.
func (s *RowSet) grow() {
	s.resize(len(s.slots))
	mask := len(s.slots) - 1
	for k, r := range s.Rows {
		i := s.home(s.hash(r))
		for s.slots[i] != 0 {
			i = (i + 1) & mask
		}
		s.slots[i] = int32(k + 1)
	}
}
