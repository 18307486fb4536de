package inum

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/workload"
)

// matrixCandidates builds a varied candidate set over the workload's
// tables: single-column, two-column and covering-ish indexes.
func matrixCandidates(t *testing.T, w *workload.Workload) []*catalog.Index {
	t.Helper()
	seen := map[string]bool{}
	var out []*catalog.Index
	add := func(ix *catalog.Index) {
		if !seen[ix.ID()] {
			seen[ix.ID()] = true
			out = append(out, ix)
		}
	}
	for _, st := range w.Queries() {
		q := st.Query
		for _, table := range q.Tables {
			cols := q.ColumnsOf(table)
			for _, c := range cols {
				add(&catalog.Index{Table: table, Key: []string{c}})
			}
			if len(cols) >= 2 {
				add(&catalog.Index{Table: table, Key: []string{cols[0], cols[1]}})
				add(&catalog.Index{Table: table, Key: []string{cols[0]}, Include: cols[1:]})
			}
		}
	}
	if len(out) < 10 {
		t.Fatalf("candidate generator too weak: %d candidates", len(out))
	}
	return out
}

// TestCostMatrixMatchesMapPath is the dense-vs-direct equivalence
// property test: for randomized configurations X, the CostMatrix
// evaluation of cost(q, X) must equal Cache.Cost's direct walk over
// X's indexes (both built on Cache.Gamma) within 1e-9.
func TestCostMatrixMatchesMapPath(t *testing.T) {
	_, cache, base := testSetup(t)
	w := workload.Hom(workload.HomConfig{Queries: 15, Seed: 421})
	cache.Prepare(w)
	s := matrixCandidates(t, w)
	cm := cache.CompileMatrix(w, s, base, 0)

	rng := rand.New(rand.NewSource(99))
	sel := make([]bool, len(s))
	checked := 0
	for trial := 0; trial < 60; trial++ {
		// Random configuration: each candidate in with probability p.
		p := []float64{0.05, 0.2, 0.5, 0.9}[trial%4]
		cfg := engine.NewConfig()
		for _, bx := range base.Indexes() {
			cfg.Add(bx)
		}
		for i := range sel {
			sel[i] = rng.Float64() < p
			if sel[i] {
				cfg.Add(s[i])
			}
		}
		for _, st := range w.Queries() {
			q := st.Query
			qm := cm.Query(q)
			if qm == nil {
				t.Fatalf("no matrix entry for %s", q.ID)
			}
			dense, dok := qm.Cost(sel)
			ref, err := cache.Cost(q, cfg)
			if err != nil {
				if dok {
					t.Fatalf("%s: direct path infeasible but dense path returned %v", q.ID, dense)
				}
				continue
			}
			if !dok {
				t.Fatalf("%s: dense path infeasible but direct path returned %v", q.ID, ref)
			}
			if math.Abs(dense-ref) > 1e-9*math.Max(1, math.Abs(ref)) {
				t.Fatalf("%s: dense cost %v != direct cost %v (p=%v)", q.ID, dense, ref, p)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("property test checked nothing")
	}
}

// TestCostDeltaMatchesCost pins the benefit-scan shortcut to the plain
// evaluation: CostDelta(sel, a) must equal Cost(sel ∪ {a}).
func TestCostDeltaMatchesCost(t *testing.T) {
	_, cache, base := testSetup(t)
	w := workload.Hom(workload.HomConfig{Queries: 8, Seed: 77})
	cache.Prepare(w)
	s := matrixCandidates(t, w)
	cm := cache.CompileMatrix(w, s, base, 0)

	rng := rand.New(rand.NewSource(5))
	sel := make([]bool, len(s))
	for i := range sel {
		sel[i] = rng.Float64() < 0.3
	}
	for _, st := range w.Queries() {
		qm := cm.Query(st.Query)
		for a := 0; a < len(s); a += 3 {
			dv, dok := qm.CostDelta(sel, int32(a))
			was := sel[a]
			sel[a] = true
			cv, cok := qm.Cost(sel)
			sel[a] = was
			if dok != cok || (dok && dv != cv) {
				t.Fatalf("%s: CostDelta(%d)=%v,%v but Cost=%v,%v", st.Query.ID, a, dv, dok, cv, cok)
			}
		}
	}
	_ = rng
}

// TestCompileMatrixDeterministic ensures the parallel compilation
// produces identical slabs regardless of worker interleaving.
func TestCompileMatrixDeterministic(t *testing.T) {
	_, cache, base := testSetup(t)
	w := workload.Hom(workload.HomConfig{Queries: 10, Seed: 13})
	cache.Prepare(w)
	s := matrixCandidates(t, w)

	a := cache.CompileMatrix(w, s, base, 0)
	b := cache.CompileMatrix(w, s, base, 0)
	for _, st := range w.Queries() {
		qa, qb := a.Query(st.Query), b.Query(st.Query)
		if qa == nil || qb == nil {
			t.Fatalf("missing matrix entry for %s", st.Query.ID)
		}
		if len(qa.Gamma) != len(qb.Gamma) || len(qa.Compat) != len(qb.Compat) {
			t.Fatalf("%s: slab shapes differ", st.Query.ID)
		}
		for i := range qa.Gamma {
			if qa.Gamma[i] != qb.Gamma[i] || qa.Compat[i] != qb.Compat[i] {
				t.Fatalf("%s: slab entry %d differs", st.Query.ID, i)
			}
		}
	}
}
