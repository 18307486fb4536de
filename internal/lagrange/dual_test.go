package lagrange

import (
	"fmt"
	"math/rand"
	"testing"
)

// labelBlocks gives every block a stable statement-style label.
func labelBlocks(m *Model) {
	for bi := range m.Blocks {
		m.Blocks[bi].ID = fmt.Sprintf("stmt-%03d", bi)
	}
}

// TestDualExportImportRoundTrip: an exported-and-imported dual state
// must warm a re-solve exactly like the original in-memory state —
// same iteration count, same bounds — because it is the same state.
func TestDualExportImportRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 10; trial++ {
		m := randomModel(r, 8+r.Intn(6), 6+r.Intn(6), 0.5)
		labelBlocks(m)
		cold := Solve(m, Options{GapTol: 0.02, RootIters: 200, MaxNodes: 8})

		blocks := cold.Lambda.Export()
		if len(blocks) != len(m.Blocks) {
			t.Fatalf("trial %d: exported %d blocks, model has %d", trial, len(blocks), len(m.Blocks))
		}
		for bi, b := range blocks {
			if b.ID != m.Blocks[bi].ID {
				t.Fatalf("trial %d: block %d exported label %q, want %q", trial, bi, b.ID, m.Blocks[bi].ID)
			}
		}

		direct := Solve(m, Options{GapTol: 0.02, RootIters: 200, MaxNodes: 8, Warm: cold.Lambda, Start: cold.Selected})
		viaJSON := Solve(m, Options{GapTol: 0.02, RootIters: 200, MaxNodes: 8, Warm: ImportDual(blocks), Start: cold.Selected})
		if direct.Iters != viaJSON.Iters || direct.Objective != viaJSON.Objective || direct.Lower != viaJSON.Lower {
			t.Fatalf("trial %d: imported warm start diverges: iters %d/%d obj %v/%v lower %v/%v",
				trial, direct.Iters, viaJSON.Iters, direct.Objective, viaJSON.Objective, direct.Lower, viaJSON.Lower)
		}
		if viaJSON.Iters > cold.Iters {
			t.Fatalf("trial %d: warm solve (%d iters) worse than cold (%d)", trial, viaJSON.Iters, cold.Iters)
		}
	}
}

func TestImportDualEdgeCases(t *testing.T) {
	if ImportDual(nil) != nil {
		t.Fatal("nil blocks must import as nil (cold start)")
	}
	var m *Multipliers
	if m.Export() != nil {
		t.Fatal("nil multipliers must export as nil")
	}
	if m.Remap([]int32{0}) != nil {
		t.Fatal("nil multipliers must remap to nil")
	}
	// An unlabeled export round-trips to positional matching.
	un := ImportDual([]DualBlock{{Sites: []DualSite{{Index: 0, Value: 1}}}, {Sites: nil}})
	if un.ids != nil {
		t.Fatal("unlabeled import grew labels")
	}
	lab := ImportDual([]DualBlock{{ID: "q1", Sites: []DualSite{{Index: 0, Value: 1}}}})
	if lab.ids == nil {
		t.Fatal("labeled import lost labels")
	}
}

// TestDualRemapCarriesSurvivors pins the compaction carry: after a
// candidate renumbering, surviving sites keep their values at their new
// positions, dropped candidates' sites vanish, and the remapped state
// still warms a model built over the compacted numbering.
func TestDualRemapCarriesSurvivors(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	n := 10
	m := randomModel(r, n, 8, 0.5)
	labelBlocks(m)
	cold := Solve(m, Options{GapTol: 0.02, RootIters: 200, MaxNodes: 8})

	// Keep the even candidates, renumbered densely; drop the odd.
	perm := make([]int32, n)
	kept := int32(0)
	for a := 0; a < n; a++ {
		if a%2 == 0 {
			perm[a] = kept
			kept++
		} else {
			perm[a] = -1
		}
	}
	remapped := cold.Lambda.Remap(perm)
	for bi := range remapped.idx {
		// Remap preserves multiplier order, so the expected result is
		// the surviving subsequence of the original multipliers, one
		// per index of the block.
		var wantIdx []int32
		var wantVals []float64
		for k, a := range cold.Lambda.idx[bi] {
			if perm[a] < 0 {
				continue
			}
			wantIdx = append(wantIdx, perm[a])
			wantVals = append(wantVals, cold.Lambda.vals[bi][k])
		}
		if len(remapped.idx[bi]) != len(wantIdx) {
			t.Fatalf("block %d: %d remapped multipliers, want %d", bi, len(remapped.idx[bi]), len(wantIdx))
		}
		seen := map[int32]bool{}
		for k := range wantIdx {
			if remapped.idx[bi][k] != wantIdx[k] || remapped.vals[bi][k] != wantVals[k] {
				t.Fatalf("block %d multiplier %d: got index %d=%v, want index %d=%v",
					bi, k, remapped.idx[bi][k], remapped.vals[bi][k], wantIdx[k], wantVals[k])
			}
			if wantIdx[k] >= kept {
				t.Fatalf("block %d: remapped index %d beyond compacted set %d", bi, wantIdx[k], kept)
			}
			if seen[wantIdx[k]] {
				t.Fatalf("block %d: index %d carries two multipliers", bi, wantIdx[k])
			}
			seen[wantIdx[k]] = true
		}
	}

	// Build the compacted model (options on dropped candidates removed,
	// survivors renumbered) and check the remapped duals warm it.
	cm := NewModel(int(kept))
	for a := 0; a < n; a += 2 {
		cm.FixedCost[perm[a]] = m.FixedCost[a]
		cm.Size[perm[a]] = m.Size[a]
	}
	cm.Budget = m.Budget
	for _, b := range m.Blocks {
		nb := Block{ID: b.ID, Weight: b.Weight}
		for _, c := range b.Choices {
			nc := Choice{Fixed: c.Fixed}
			for _, slot := range c.Slots {
				var ns Slot
				for _, o := range slot {
					if o.Index == NoIndex {
						ns = append(ns, o)
					} else if perm[o.Index] >= 0 {
						ns = append(ns, Option{Index: perm[o.Index], Cost: o.Cost})
					}
				}
				if len(ns) > 0 {
					nc.Slots = append(nc.Slots, ns)
				}
			}
			nb.Choices = append(nb.Choices, nc)
		}
		cm.Blocks = append(cm.Blocks, nb)
	}
	coldC := Solve(cm, Options{GapTol: 0.02, RootIters: 200, MaxNodes: 8})
	warmC := Solve(cm, Options{GapTol: 0.02, RootIters: 200, MaxNodes: 8, Warm: remapped})
	if warmC.Iters > coldC.Iters {
		t.Fatalf("remapped warm start worse than cold on compacted model: %d vs %d iters", warmC.Iters, coldC.Iters)
	}
	if warmC.Infeasible {
		t.Fatal("remapped warm start broke the compacted solve")
	}
}
