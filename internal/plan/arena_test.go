package plan

import (
	"fmt"
	"testing"

	"repro/internal/cost"
	"repro/internal/query"
	"repro/internal/stats"
)

// arenaChain interns a left-deep chain over n scans in a, each join with
// one predicate carved from the arena, sorted on the first table's key and
// grouped on top — every node type Detach must copy.
func arenaChain(a *Arena, n int) Node {
	var left Node = scanNode("t0", 0, 100)
	for i := 1; i < n; i++ {
		right := scanNode(fmt.Sprintf("t%d", i), i, float64(100+i))
		j, isNew := a.Join(left, right, cost.Method(i%int(cost.NumMethods)))
		if !isNew {
			panic("arenaChain: fresh scans must intern new joins")
		}
		j.Preds = a.Preds(1)
		j.Preds[0] = query.JoinPred{
			Left:        query.ColumnRef{Table: fmt.Sprintf("t%d", i-1), Column: "k"},
			Right:       query.ColumnRef{Table: fmt.Sprintf("t%d", i), Column: "k"},
			Selectivity: 0.01,
		}
		j.Pages, j.Rows = float64(10*i), float64(100*i)
		j.SizeDist = stats.Point(float64(10 * i))
		left = j
	}
	s, _ := a.Sort(left, query.ColumnRef{Table: "t0", Column: "k"})
	return &Aggregate{Input: s, GroupKey: query.ColumnRef{Table: "t0", Column: "k"}, Groups: 5, Pages: 1}
}

func TestDetachSharesNothingWithTheArena(t *testing.T) {
	a := NewArena()
	orig := arenaChain(a, 6)
	d := Detach(orig)
	if d.Key() != orig.Key() || Explain(d) != Explain(orig) {
		t.Fatalf("detached plan reads differently:\n%s\nvs\n%s", Explain(d), Explain(orig))
	}
	dm := stats.MustNew([]float64{50, 500}, []float64{0.5, 0.5})
	if ExpCost(d, dm) != ExpCost(orig, dm) {
		t.Errorf("detached ExpCost %v != %v", ExpCost(d, dm), ExpCost(orig, dm))
	}
	seen := map[Node]bool{}
	preds := map[*query.JoinPred]bool{}
	Walk(orig, func(n Node) {
		seen[n] = true
		if j, ok := n.(*Join); ok {
			preds[&j.Preds[0]] = true
		}
	})
	nodes := 0
	Walk(d, func(n Node) {
		nodes++
		if seen[n] {
			t.Errorf("detached plan shares node %s", n.Key())
		}
		switch v := n.(type) {
		case *Scan:
			if v.aid != 0 {
				t.Errorf("scan %s keeps arena id %d", v.Table, v.aid)
			}
		case *Join:
			if v.aid != 0 || preds[&v.Preds[0]] {
				t.Errorf("join %s keeps arena id %d or shares its predicate list", v.Key(), v.aid)
			}
			if cap(v.Preds) != len(v.Preds) {
				t.Errorf("join %s predicate list has spare capacity %d", v.Key(), cap(v.Preds))
			}
		case *Sort:
			if v.aid != 0 {
				t.Errorf("sort keeps arena id %d", v.aid)
			}
		}
	})
	if nodes != len(seen) {
		t.Errorf("detached plan has %d nodes, original %d", nodes, len(seen))
	}

	// The copy survives the arena being reset and refilled.
	want := Explain(d)
	if !a.Reset() {
		t.Fatal("a small arena must reset")
	}
	arenaChain(a, 6)
	if got := Explain(d); got != want {
		t.Errorf("detached plan changed after arena reuse:\n%s\nwant:\n%s", got, want)
	}
}

func TestArenaResetReusesSlabs(t *testing.T) {
	a := NewArena()
	root := arenaChain(a, 8).(*Aggregate).Input.(*Sort)
	first := root.Input.(*Join)
	firstKey := first.Key()
	if !a.Reset() {
		t.Fatal("a small arena must reset")
	}
	if a.Size() != 0 || a.Hits() != 0 {
		t.Fatalf("after Reset: size %d hits %d, want 0 0", a.Size(), a.Hits())
	}
	if first.Left != nil || first.Preds != nil || first.SizeDist != nil || first.key != "" {
		t.Errorf("Reset left a handed-out join populated: %+v", *first)
	}
	// Ids restart, and the same structure interns into the same slab slots
	// as fresh nodes.
	again := arenaChain(a, 8).(*Aggregate).Input.(*Sort)
	if again != root || again.Input.(*Join) != first {
		t.Error("Reset did not rewind the slabs")
	}
	if first.Key() != firstKey || first.aid == 0 {
		t.Errorf("re-interned join key %q aid %d, want %q and a fresh id", first.Key(), first.aid, firstKey)
	}
}

// TestArenaResetClearsGrownTables: a table that grew (but stayed under the
// cap) is emptied through its used-slot list, including the slots the
// rehash moved entries to.
func TestArenaResetClearsGrownTables(t *testing.T) {
	a := NewArena()
	intern := func() (fresh int) {
		left := Node(scanNode("l", 0, 1))
		for i := 0; i < 1500; i++ {
			if _, isNew := a.Join(left, scanNode(fmt.Sprintf("r%d", i), 1, 1), cost.NestedLoop); isNew {
				fresh++
			}
		}
		return fresh
	}
	intern()
	if len(a.joins.slots) <= joinInitSlots {
		t.Fatalf("table did not grow: %d slots", len(a.joins.slots))
	}
	if !a.Reset() {
		t.Fatalf("Reset refused a %d-slot table", len(a.joins.slots))
	}
	for i, s := range a.joins.slots {
		if s.key != 0 || s.v != nil {
			t.Fatalf("slot %d still occupied after Reset", i)
		}
	}
	if got := intern(); got != 1500 {
		t.Errorf("after Reset %d of 1500 joins interned fresh", got)
	}
}

func TestArenaResetDropsOversizedTables(t *testing.T) {
	a := NewArena()
	left := Node(scanNode("l", 0, 1))
	// Enough distinct joins to grow the table past arenaResetMaxSlots.
	for i := 0; a.joins.count*4 < arenaResetMaxSlots*3; i++ {
		a.Join(left, scanNode(fmt.Sprintf("r%d", i), 1, 1), cost.NestedLoop)
	}
	size := a.Size()
	if a.Reset() {
		t.Fatalf("Reset accepted a %d-slot table (cap %d)", len(a.joins.slots), arenaResetMaxSlots)
	}
	if a.Size() != size {
		t.Errorf("a refused Reset changed the arena: size %d → %d", size, a.Size())
	}
}
