package plan

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/query"
)

// Arena interns plan nodes for one optimizer session. The dynamic programs
// construct the same join candidate many times — once per lattice subset it
// could extend, per costing pass, and (for Algorithms A/B) once per memory
// bucket. Because a node's estimates depend only on its inputs and join
// method, two candidates with the same (left, right, method) are
// interchangeable; the arena hands back the canonical node instead of
// allocating a duplicate.
//
// Inputs are required to be interned themselves (the optimizer's scans are
// per-relation singletons), so identity of the children doubles as
// structural identity. Each node the arena touches is assigned a small
// sequential id, and a candidate's signature packs (left id, right id,
// method) into one uint64 — probed through an open-addressed table rather
// than a runtime map, because the DP constructs thousands of candidates per
// run and the map's per-entry buckets dominated the allocation profile.
// Join nodes and their predicate lists are carved out of fixed-size slabs
// for the same reason.
//
// An arena lives for one session and is then Reset and reused by the next
// one, so nothing it handed out may outlive the session: plans that leave
// it are copied out with Detach first.
type Arena struct {
	joins  internTable[Join]
	sorts  internTable[Sort]
	hits   int
	nextID uint32 // last assigned node id (ids start at 1)

	joinSlab slabs[Join]
	sortSlab slabs[Sort]
	preds    slabs[query.JoinPred]
	sortCols []query.ColumnRef // distinct sort columns seen (almost always one)
}

const (
	joinInitSlots = 1 << 10
	sortInitSlots = 1 << 8
	joinSlabSize  = 256
	sortSlabSize  = 64
	predSlabSize  = 256

	// arenaResetMaxSlots caps the intern tables an arena may keep across
	// Reset. It bounds what a pooled arena holds on to: an arena a large
	// session grew past the cap is dropped rather than reused.
	arenaResetMaxSlots = 1 << 12
)

// internTable maps non-zero uint64 signatures to interned nodes: an
// open-addressed, power-of-two slot array probed from a Fibonacci hash.
// used lists the occupied slots, so reset costs O(count), not O(slots);
// a table grown past arenaResetMaxSlots is never reset and stops tracking.
type internTable[T any] struct {
	slots []internSlot[T]
	shift uint // 64 - log2(len(slots)); the hash uses the top bits
	count int
	used  []uint32
}

type internSlot[T any] struct {
	key uint64 // 0 = empty
	v   *T
}

// find returns the node interned under k, or nil and the slot where k
// belongs.
func (t *internTable[T]) find(k uint64, initSlots int) (*T, uint64) {
	if t.slots == nil {
		t.grow(initSlots)
	}
	mask := uint64(len(t.slots) - 1)
	i := (k * 0x9e3779b97f4a7c15) >> t.shift
	for {
		s := &t.slots[i]
		if s.key == k {
			return s.v, i
		}
		if s.key == 0 {
			return nil, i
		}
		i = (i + 1) & mask
	}
}

// insert stores v under k in slot i, which find returned for k.
func (t *internTable[T]) insert(i, k uint64, v *T) {
	t.slots[i] = internSlot[T]{key: k, v: v}
	if len(t.slots) <= arenaResetMaxSlots {
		t.used = append(t.used, uint32(i))
	}
	t.count++
	if t.count*4 >= len(t.slots)*3 {
		t.grow(len(t.slots) * 2)
	}
}

// grow rehashes the table into a new power-of-two slot array.
func (t *internTable[T]) grow(slots int) {
	old := t.slots
	t.slots = make([]internSlot[T], slots)
	t.shift = 64
	for s := slots; s > 1; s >>= 1 {
		t.shift--
	}
	track := slots <= arenaResetMaxSlots
	if !track {
		t.used = nil
	}
	t.used = t.used[:0]
	mask := uint64(slots - 1)
	for _, s := range old {
		if s.key == 0 {
			continue
		}
		i := (s.key * 0x9e3779b97f4a7c15) >> t.shift
		for t.slots[i].key != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
		if track {
			t.used = append(t.used, uint32(i))
		}
	}
}

// reset empties the table, keeping its slot array.
func (t *internTable[T]) reset() {
	for _, i := range t.used {
		t.slots[i] = internSlot[T]{}
	}
	t.used = t.used[:0]
	t.count = 0
}

// slabs hands out elements of fixed-size chunks. rewind makes the chunks
// reusable without freeing them; it clears only what was handed out.
type slabs[T any] struct {
	chunks [][]T
	cur    int // chunk being carved (meaningful once chunks is non-empty)
	used   int // elements handed out of chunks[cur]
}

// carve returns n contiguous zeroed elements with capacity n, so an append
// by the caller cannot run into the next carving. A request larger than a
// chunk gets its own allocation.
func (s *slabs[T]) carve(n, size int) []T {
	if n > size {
		return make([]T, n)
	}
	if len(s.chunks) == 0 || s.used+n > size {
		if len(s.chunks) > 0 {
			s.cur++
		}
		if s.cur == len(s.chunks) {
			s.chunks = append(s.chunks, make([]T, size))
		}
		s.used = 0
	}
	out := s.chunks[s.cur][s.used : s.used+n : s.used+n]
	s.used += n
	return out
}

// rewind zeroes the handed-out elements and restarts carving at the first
// chunk.
func (s *slabs[T]) rewind() {
	if len(s.chunks) == 0 {
		return
	}
	for _, c := range s.chunks[:s.cur] {
		clear(c)
	}
	clear(s.chunks[s.cur][:s.used])
	s.cur, s.used = 0, 0
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// id returns n's arena id, assigning the next free one on first sight.
func (a *Arena) id(n Node) uint32 {
	var slot *uint32
	switch v := n.(type) {
	case *Scan:
		slot = &v.aid
	case *Join:
		slot = &v.aid
	case *Sort:
		slot = &v.aid
	default:
		panic("plan: unknown node type in arena")
	}
	if *slot == 0 {
		a.nextID++
		*slot = a.nextID
	}
	return *slot
}

// joinKey packs a candidate's signature into a non-zero uint64. Ids start
// at 1 and methods fit in 4 bits, so distinct signatures map to distinct
// keys until 2^30 nodes have been interned — far past any feasible session.
func (a *Arena) joinKey(left, right Node, m cost.Method) uint64 {
	return uint64(a.id(left))<<34 | uint64(a.id(right))<<4 | uint64(m)
}

// Join returns the canonical node for left ⋈_method right. isNew reports
// whether this call created it: the node comes back with Left, Right and
// Method set, and the caller must fill the estimate fields (Preds,
// Selectivity, Pages, Rows) exactly once.
func (a *Arena) Join(left, right Node, m cost.Method) (j *Join, isNew bool) {
	k := a.joinKey(left, right, m)
	j, i := a.joins.find(k, joinInitSlots)
	if j != nil {
		a.hits++
		return j, false
	}
	j = &a.joinSlab.carve(1, joinSlabSize)[0]
	j.Left, j.Right, j.Method = left, right, m
	// Force the Rels memo while the arena still owns the node, so readers
	// of a shared plan never write it lazily.
	j.rels = left.Rels().Union(right.Rels())
	a.nextID++
	j.aid = a.nextID
	a.joins.insert(i, k, j)
	return j, true
}

// colIdx returns col's index in the distinct-column list, registering it on
// first sight. A session sorts by (at most) the one ORDER BY column, so the
// scan is effectively constant time.
func (a *Arena) colIdx(col query.ColumnRef) int {
	for i, c := range a.sortCols {
		if c == col {
			return i
		}
	}
	a.sortCols = append(a.sortCols, col)
	return len(a.sortCols) - 1
}

// Sort returns the canonical sort of input by col. isNew reports whether
// this call created it; Input and Key_ are set either way.
func (a *Arena) Sort(input Node, col query.ColumnRef) (s *Sort, isNew bool) {
	k := uint64(a.id(input))<<8 | uint64(a.colIdx(col)) + 1
	s, i := a.sorts.find(k, sortInitSlots)
	if s != nil {
		a.hits++
		return s, false
	}
	s = &a.sortSlab.carve(1, sortSlabSize)[0]
	s.Input, s.Key_ = input, col
	a.nextID++
	s.aid = a.nextID
	a.sorts.insert(i, k, s)
	return s, true
}

// Preds returns a zeroed predicate list of length n for a join this arena
// interned, carved from the arena's predicate slab.
func (a *Arena) Preds(n int) []query.JoinPred {
	return a.preds.carve(n, predSlabSize)
}

// Reset empties the arena for the next session: the intern tables are
// cleared, the node and predicate slabs rewound, and ids restart at 1, at a
// cost proportional to what the session interned. Reset reports false, and
// leaves the arena as it is, when an intern table grew past
// arenaResetMaxSlots; the caller should drop such an arena.
func (a *Arena) Reset() bool {
	if len(a.joins.slots) > arenaResetMaxSlots || len(a.sorts.slots) > arenaResetMaxSlots {
		return false
	}
	a.joins.reset()
	a.sorts.reset()
	a.joinSlab.rewind()
	a.sortSlab.rewind()
	a.preds.rewind()
	clear(a.sortCols)
	a.sortCols = a.sortCols[:0]
	a.hits, a.nextID = 0, 0
	return true
}

// Size returns the number of distinct nodes interned.
func (a *Arena) Size() int { return a.joins.count + a.sorts.count }

// Hits returns how many node constructions were served from the arena.
func (a *Arena) Hits() int { return a.hits }

// Detach returns a deep copy of the plan rooted at n that shares no memory
// and no ids with any arena: every Scan, Join, Sort and Aggregate is
// copied, join predicate lists are cloned, and arena ids are cleared. A
// plan that outlives its optimizer session must be detached, or it keeps
// the session's slabs — losing candidates included — alive, and sees them
// overwritten once the arena is reused. The copy's nodes come from a few
// exactly sized allocations.
func Detach(n Node) Node {
	var d detacher
	d.count(n)
	d.scans = make([]Scan, 0, d.nScans)
	d.joins = make([]Join, 0, d.nJoins)
	d.sorts = make([]Sort, 0, d.nSorts)
	d.preds = make([]query.JoinPred, 0, d.nPreds)
	return d.copy(n)
}

// detacher backs one Detach: the counts size the backing slices, which are
// then filled by appends that never reallocate.
type detacher struct {
	nScans, nJoins, nSorts, nPreds int

	scans []Scan
	joins []Join
	sorts []Sort
	preds []query.JoinPred
}

func (d *detacher) count(n Node) {
	switch v := n.(type) {
	case *Scan:
		d.nScans++
	case *Join:
		d.nJoins++
		d.nPreds += len(v.Preds)
		d.count(v.Left)
		d.count(v.Right)
	case *Sort:
		d.nSorts++
		d.count(v.Input)
	case *Aggregate:
		d.count(v.Input)
	default:
		panic(fmt.Sprintf("plan: Detach of unknown node type %T", n))
	}
}

func (d *detacher) copy(n Node) Node {
	switch v := n.(type) {
	case *Scan:
		d.scans = append(d.scans, *v)
		c := &d.scans[len(d.scans)-1]
		c.aid = 0
		return c
	case *Join:
		d.joins = append(d.joins, *v)
		c := &d.joins[len(d.joins)-1]
		c.aid = 0
		c.Left, c.Right = d.copy(v.Left), d.copy(v.Right)
		if v.Preds != nil {
			start := len(d.preds)
			d.preds = append(d.preds, v.Preds...)
			c.Preds = d.preds[start:len(d.preds):len(d.preds)]
		}
		return c
	case *Sort:
		d.sorts = append(d.sorts, *v)
		c := &d.sorts[len(d.sorts)-1]
		c.aid = 0
		c.Input = d.copy(v.Input)
		return c
	default: // *Aggregate; count rejected anything else
		a := *n.(*Aggregate)
		a.Input = d.copy(a.Input)
		return &a
	}
}
