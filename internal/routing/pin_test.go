package routing

import (
	"testing"

	"turnmodel/internal/topology"
)

// TestPinnedTableSurvivesEviction: the table cache's size-cap eviction
// picks an arbitrary unpinned victim, so churning far more than
// maxCachedTables short-lived relations through TableFor must leave a
// pinned entry's table untouched — same pointer, no recompilation.
// After release the entry is evictable again (exercised only for the
// release path's bookkeeping; eviction of any particular entry is
// never deterministic).
func TestPinnedTableSurvivesEviction(t *testing.T) {
	mesh := topology.NewMesh(2, 2)
	pinned := NewDimensionOrder(mesh)
	release := PinTable(AsVC(pinned))
	defer release()
	tab1 := TableFor(AsVC(pinned))
	if tab1 == nil {
		t.Fatal("pinned relation did not compile")
	}
	for i := 0; i < 3*maxCachedTables; i++ {
		churn := NewDimensionOrder(topology.NewMesh(2, 2))
		if TableFor(AsVC(churn)) == nil {
			t.Fatal("churn relation did not compile")
		}
	}
	tab2 := TableFor(AsVC(pinned))
	if tab2 != tab1 {
		t.Errorf("pinned table was evicted and recompiled (got %p, want %p)", tab2, tab1)
	}
	release()
	release() // idempotent: a double release must not underflow the pin count
	tableCacheMu.Lock()
	e := tableCache[AsVC(pinned)]
	tableCacheMu.Unlock()
	if e == nil {
		t.Fatal("pinned entry vanished while pinned-then-released")
	}
	tableCacheMu.Lock()
	pins := e.pins
	tableCacheMu.Unlock()
	if pins != 0 {
		t.Errorf("pin count after release = %d, want 0", pins)
	}
}

// noted is a user relation held by value with a slice field: its type
// is not comparable, though AsVC's wrapper around it is.
type noted struct {
	Algorithm
	notes []string
}

// TestPinTableUncomparable: pinning a relation that cannot be a map key
// must be a harmless no-op, mirroring TableFor's refusal to cache it —
// including one whose comparable wrapper hides a non-comparable value.
func TestPinTableUncomparable(t *testing.T) {
	PinTable(nil)()
	alg := AsVC(noted{NewDimensionOrder(topology.NewMesh(2, 2)), []string{"held by value"}})
	release := PinTable(alg)
	release()
	if TableFor(alg) != nil {
		t.Error("TableFor compiled a relation that cannot key its cache")
	}
}
