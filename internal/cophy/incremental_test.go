package cophy

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/tpch"
	"repro/internal/workload"
)

// driftTemplates are the statement shapes of the drifting stream, by
// phase: each phase adds shapes, some on tables the stream already
// uses (new candidates on old tables) and some on tables no earlier
// statement touched (new candidates on fresh tables). %s is a random
// normalized position.
var driftTemplates = [][]string{
	{
		"SELECT l_extendedprice FROM lineitem WHERE l_shipdate BETWEEN :0.1 AND :%s",
		"SELECT o_totalprice FROM orders WHERE o_orderdate < :%s",
		"SELECT o_orderdate, SUM(l_extendedprice) FROM orders, lineitem WHERE l_orderkey = o_orderkey AND o_orderdate < :%s GROUP BY o_orderdate",
		"UPDATE lineitem SET l_quantity = :0.5 WHERE l_orderkey < :%s",
	},
	{
		// Its covering candidate also serves the first lineitem shape,
		// and stores the column the lineitem UPDATE sets.
		"SELECT l_extendedprice, l_discount FROM lineitem WHERE l_shipdate BETWEEN :0.1 AND :%s AND l_quantity < :0.5",
		"SELECT l_suppkey, l_tax FROM lineitem WHERE l_commitdate < :%s",
		"UPDATE orders SET o_orderstatus = :0.5 WHERE o_orderdate < :%s",
	},
	{
		"SELECT c_name, c_acctbal FROM customer WHERE c_mktsegment = :%s",
		"SELECT c_name, o_totalprice FROM customer, orders WHERE c_custkey = o_custkey AND c_mktsegment = :%s",
	},
	{
		"SELECT p_name FROM part WHERE p_size < :%s",
		"UPDATE part SET p_retailprice = :0.5 WHERE p_size < :%s",
	},
}

// driftShapes returns the shapes of phases 0..phase.
func driftShapes(phase int) []string {
	var shapes []string
	for p := 0; p <= phase && p < len(driftTemplates); p++ {
		shapes = append(shapes, driftTemplates[p]...)
	}
	return shapes
}

// driftBatch draws n statements from shapes.
func driftBatch(t *testing.T, cat *catalog.Catalog, r *rand.Rand, shapes []string, n int) []*workload.Statement {
	t.Helper()
	var sql strings.Builder
	for i := 0; i < n; i++ {
		pos := fmt.Sprintf("%.2f", 0.2+0.7*r.Float64())
		fmt.Fprintf(&sql, shapes[r.Intn(len(shapes))]+";\n", pos)
	}
	w, err := workload.Parse(cat, sql.String())
	if err != nil {
		t.Fatal(err)
	}
	return w.Statements
}

// TestIncrementalBuildModelBitIdentical pins incremental BIPGen and
// memoized candidate generation to their cold forms over a seeded
// drifting stream: statements arrive, decay and are evicted; UPDATEs
// come and go; candidates appear on tables already in use and on fresh
// ones; DBA candidates join; the session is compacted, replaced by a
// fresh one and restored from exported state. At every step the
// session's model must be deeply equal to a fresh BuildModel of the
// same instance and the memoized candidate list equal to Candidates.
func TestIncrementalBuildModelBitIdentical(t *testing.T) {
	cat := tpch.Build(tpch.Config{ScaleFactor: 0.05})
	eng := engine.New(cat, engine.SystemA())
	ad := NewAdvisor(cat, eng, Options{})
	// A DBA candidate duplicating a generated one, and one on a table
	// no statement touches until the last phase.
	opts := CGenOptions{Covering: true, DBA: []*catalog.Index{
		{Table: "orders", Key: []string{"o_orderdate"}},
		{Table: "part", Key: []string{"p_size", "p_name"}},
	}}
	gen := NewCGen(cat, opts)
	cons := FractionOfData(cat, 0.5)

	// Phases start at steps 6, 16 and 26, each with one statement of
	// its first shape, so candidates are appended to a session whose
	// memo holds the statements they concern; compactions, restores and
	// fresh sessions fall on other steps.
	r := rand.New(rand.NewSource(7))
	stream := workload.NewStream(workload.StreamConfig{HalfLife: 3, MinWeight: 0.2})
	var se *Session
	reused, compacted, fresh, restored := 0, 0, 0, 0
	for step := 0; step < 48; step++ {
		phase := min((step+4)/10, len(driftTemplates)-1)
		batch := driftBatch(t, cat, r, driftShapes(phase), 1+r.Intn(4))
		if step+4 == 10*phase {
			batch = append(batch, driftBatch(t, cat, r, driftTemplates[phase][:1], 1)...)
		}
		stream.ObserveBatch(batch)
		w := stream.Snapshot()

		cands := gen.Candidates(w)
		if want := Candidates(cat, w, opts); !reflect.DeepEqual(cands, want) {
			t.Fatalf("step %d: memoized candidates differ from Candidates (%d vs %d)", step, len(cands), len(want))
		}

		switch {
		case se == nil || step%13 == 11:
			// A fresh session, as Advisor.Recommend starts one.
			if se != nil {
				fresh++
			}
			se = ad.NewSession(w, cands, cons)
		case step%11 == 8:
			st := se.ExportState()
			if st == nil {
				t.Fatalf("step %d: no state to restore from", step)
			}
			se = ad.RestoreSession(w, st, cons)
			se.AddCandidates(cands)
			restored++
		default:
			se.SetWorkload(w)
			se.AddCandidates(cands)
		}
		if step%9 == 4 {
			se.Compact(cands)
			compacted++
		}

		inst := ad.instance(se.w, se.s)
		got, memo, err := buildModel(inst, se.memo)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		want, err := BuildModel(inst)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: incremental model differs from a full BuildModel", step)
		}
		if se.memo != nil && len(se.s) > 1 {
			// A memo must not outlive a reordered candidate prefix.
			swapped := ad.instance(se.w, append([]*catalog.Index{se.s[1], se.s[0]}, se.s[2:]...))
			got, _, err := buildModel(swapped, se.memo)
			if err != nil {
				t.Fatal(err)
			}
			if want, _ := BuildModel(swapped); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: a memo survived a changed candidate prefix", step)
			}
		}
		if se.memo != nil {
			for i := range got.Blocks {
				if prev := se.memo.blocks[got.Blocks[i].ID]; len(prev) > 0 && &prev[0] == &got.Blocks[i].Choices[0] {
					reused++
				}
			}
		}
		// The session's own solve builds from the same memo.
		if _, err := se.Solve(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(memo, se.memo) {
			t.Fatalf("step %d: the session's own build left a different memo", step)
		}
	}
	t.Logf("blocks reused=%d compactions=%d fresh=%d restores=%d", reused, compacted, fresh, restored)
	if reused == 0 || compacted == 0 || fresh == 0 || restored == 0 {
		t.Fatalf("drift did not exercise every path: reused=%d compacted=%d fresh=%d restored=%d",
			reused, compacted, fresh, restored)
	}
}

// TestIncrementalBuildEngagement is the non-vacuous half of the pin: a
// warm re-solve after a one-statement delta that adds no candidates
// must spend γ kernel calls on the new statement only.
func TestIncrementalBuildEngagement(t *testing.T) {
	cat := tpch.Build(tpch.Config{ScaleFactor: 0.05})
	eng := engine.New(cat, engine.SystemA())
	ad := NewAdvisor(cat, eng, Options{})
	opts := CGenOptions{Covering: true}
	r := rand.New(rand.NewSource(3))
	stream := workload.NewStream(workload.StreamConfig{})
	stream.ObserveBatch(driftBatch(t, cat, r, driftShapes(2), 24))
	w := stream.Snapshot()
	se := ad.NewSession(w, Candidates(cat, w, opts), FractionOfData(cat, 0.5))
	if _, err := se.Solve(); err != nil {
		t.Fatal(err)
	}

	// The delta: an existing statement's shape at a new position, so
	// candidate generation yields nothing new.
	delta := driftBatch(t, cat, rand.New(rand.NewSource(3)), driftShapes(0), 1)[0]
	if delta.Query != nil {
		delta.Query.Preds[len(delta.Query.Preds)-1].Hi = 0.987
	} else {
		delta.Update.Where[0].Hi = 0.987
	}
	stream.ObserveBatch([]*workload.Statement{delta})
	w2 := stream.Snapshot()
	if w2.Size() != w.Size()+1 {
		t.Fatalf("delta did not add one statement: %d → %d", w.Size(), w2.Size())
	}
	cands := Candidates(cat, w2, opts)
	if len(cands) != len(se.Candidates()) {
		t.Fatalf("delta added candidates: %d → %d", len(se.Candidates()), len(cands))
	}
	se.SetWorkload(w2)
	se.AddCandidates(cands)

	eng.ResetSlotCostCalls()
	if _, err := se.Solve(); err != nil {
		t.Fatal(err)
	}
	got := eng.SlotCostCalls()

	// What compiling the new statement alone costs, and what a full
	// rebuild costs, on the same instance.
	inst := ad.instance(w2, se.Candidates())
	eng.ResetSlotCostCalls()
	one := &workload.Workload{Statements: []*workload.Statement{w2.Statements[len(w2.Statements)-1]}}
	ad.Inum.CompileMatrix(one, inst.S, inst.Baseline, 1)
	want := eng.SlotCostCalls()
	eng.ResetSlotCostCalls()
	if _, err := BuildModel(inst); err != nil {
		t.Fatal(err)
	}
	full := eng.SlotCostCalls()
	if want == 0 || got != want || full <= got {
		t.Fatalf("warm re-solve made %d γ kernel calls; the new statement alone needs %d, a full rebuild %d", got, want, full)
	}
}
