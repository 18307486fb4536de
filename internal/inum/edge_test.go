package inum

import (
	"math"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/tpch"
	"repro/internal/workload"
)

// TestPrepareIdempotent: preparing the same query twice must not
// duplicate templates or optimizer calls.
func TestPrepareIdempotent(t *testing.T) {
	eng, cache, _ := testSetup(t)
	q := &workload.Query{
		ID:     "e-idem",
		Tables: []string{"orders"},
		Select: []catalog.ColumnRef{ref("orders", "o_totalprice")},
		Preds:  []workload.Predicate{{Col: ref("orders", "o_orderdate"), Op: workload.OpLt, Hi: 0.3}},
	}
	qi1 := cache.PrepareQuery(q)
	calls := eng.WhatIfCalls()
	qi2 := cache.PrepareQuery(q)
	if qi1 != qi2 {
		t.Fatal("PrepareQuery must return the cached entry")
	}
	if eng.WhatIfCalls() != calls {
		t.Fatal("re-preparation must not call the optimizer")
	}
}

// TestConcurrentPrepare: racing goroutines on one cache must settle on
// a single entry per query without data races.
func TestConcurrentPrepare(t *testing.T) {
	_, cache, base := testSetup(t)
	w := workload.Hom(workload.HomConfig{Queries: 20, Seed: 40})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, st := range w.Queries() {
				if _, err := cache.Cost(st.Query, base); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestTemplateCapRespected: a pathological many-order query must not
// exceed MaxTemplates.
func TestTemplateCapRespected(t *testing.T) {
	_, cache, _ := testSetup(t)
	cache.MaxTemplates = 4
	q := &workload.Query{
		ID:     "e-cap",
		Tables: []string{"lineitem", "orders", "customer"},
		Select: []catalog.ColumnRef{ref("lineitem", "l_extendedprice")},
		Joins: []workload.Join{
			{Left: ref("lineitem", "l_orderkey"), Right: ref("orders", "o_orderkey")},
			{Left: ref("orders", "o_custkey"), Right: ref("customer", "c_custkey")},
		},
		GroupBy:   []catalog.ColumnRef{ref("customer", "c_mktsegment")},
		Aggregate: true,
	}
	qi := cache.PrepareQuery(q)
	if len(qi.Templates) > 4 {
		t.Fatalf("templates = %d, cap 4", len(qi.Templates))
	}
}

// TestGammaInfeasibleOtherTable: an index on another table cannot
// fill a slot, on every call, and asking costs no optimizer call.
func TestGammaInfeasibleOtherTable(t *testing.T) {
	eng, cache, _ := testSetup(t)
	q := &workload.Query{
		ID:     "e-inf",
		Tables: []string{"orders"},
		Select: []catalog.ColumnRef{ref("orders", "o_totalprice")},
	}
	qi := cache.PrepareQuery(q)
	wrongTable := &catalog.Index{Table: "lineitem", Key: []string{"l_shipdate"}}
	calls := eng.WhatIfCalls()
	for i := 0; i < 2; i++ {
		if _, ok := cache.Gamma(qi, 0, 0, wrongTable); ok {
			t.Fatalf("call %d: index on another table cannot fill the slot", i)
		}
	}
	if eng.WhatIfCalls() != calls {
		t.Fatal("Gamma must not invoke the optimizer")
	}
}

// TestCostAgainstSkewedEngine: INUM stays an upper bound under skew.
func TestCostAgainstSkewedEngine(t *testing.T) {
	cat := tpch.Build(tpch.Config{ScaleFactor: 0.05, Skew: 2})
	eng := engine.New(cat, engine.SystemA())
	cache := New(eng)
	base := engine.NewConfig(tpch.BaselineIndexes(cat)...)
	w := workload.Hom(workload.HomConfig{Queries: 20, Seed: 41})
	cache.Prepare(w)
	cfg := base.Union(engine.NewConfig(
		&catalog.Index{Table: "orders", Key: []string{"o_orderdate"}, Include: []string{"o_totalprice"}},
	))
	for _, st := range w.Queries() {
		inumCost, err := cache.Cost(st.Query, cfg)
		if err != nil {
			t.Fatal(err)
		}
		opt, _ := eng.WhatIfCost(st.Query, cfg)
		if inumCost < opt*(1-1e-6) {
			t.Fatalf("%s: INUM %v below optimal %v under skew", st.Query.ID, inumCost, opt)
		}
		if math.IsInf(inumCost, 0) {
			t.Fatalf("%s: infinite INUM cost", st.Query.ID)
		}
	}
}

// TestWorkloadCostMatchesStatementSum: WorkloadCost is the weighted
// sum of StatementCost.
func TestWorkloadCostMatchesStatementSum(t *testing.T) {
	_, cache, base := testSetup(t)
	w := workload.Hom(workload.HomConfig{Queries: 8, UpdateFraction: 0.25, Seed: 42})
	total, err := cache.WorkloadCost(w, base)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, st := range w.Statements {
		c, err := cache.StatementCost(st, base)
		if err != nil {
			t.Fatal(err)
		}
		sum += st.Weight * c
	}
	if math.Abs(total-sum) > 1e-9*sum {
		t.Fatalf("WorkloadCost %v != Σ weighted statements %v", total, sum)
	}
}
