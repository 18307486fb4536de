// Package repro's root benchmark harness: one benchmark per table and
// figure of the paper's evaluation (run via the experiments package at
// a reduced scale so `go test -bench=.` completes in minutes), plus
// micro-benchmarks of the substrates and ablation benchmarks for the
// design choices DESIGN.md calls out. `cmd/experiments -scale 1`
// regenerates the full-scale numbers recorded in EXPERIMENTS.md.
package repro

import (
	"testing"

	"repro/internal/advisors/ilp"
	"repro/internal/catalog"
	"repro/internal/cophy"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/inum"
	"repro/internal/lagrange"
	"repro/internal/lp"
	"repro/internal/tpch"
	"repro/internal/workload"
)

// benchScale keeps the per-iteration work of the table/figure
// benchmarks around a few seconds.
const benchScale = 0.05

func runExp(b *testing.B, name string) {
	b.Helper()
	cfg := experiments.Config{Scale: benchScale, Seed: 42, GapTol: 0.05}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run(name, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// One benchmark per paper artifact.

func BenchmarkTable1(b *testing.B)   { runExp(b, "table1") }
func BenchmarkFigure4(b *testing.B)  { runExp(b, "figure4") }
func BenchmarkFigure5(b *testing.B)  { runExp(b, "figure5") }
func BenchmarkFigure6a(b *testing.B) { runExp(b, "figure6a") }
func BenchmarkFigure6b(b *testing.B) { runExp(b, "figure6b") }
func BenchmarkFigure6c(b *testing.B) { runExp(b, "figure6c") }
func BenchmarkFigure7(b *testing.B)  { runExp(b, "figure7") }
func BenchmarkFigure8(b *testing.B)  { runExp(b, "figure8") }
func BenchmarkFigure9(b *testing.B)  { runExp(b, "figure9") }
func BenchmarkFigure10(b *testing.B) { runExp(b, "figure10") }
func BenchmarkSkewZ1(b *testing.B)   { runExp(b, "skewz1") }

// --- Substrate micro-benchmarks ---

// BenchmarkKernels runs the kernel micro-benchmark registry
// (experiments.BenchSuites) as sub-benchmarks, e.g.
// `-bench 'Kernels/INUM/CostMatrixEval'` — the same definitions
// `cmd/experiments -bench-json` exports to BENCH_*.json. A suite's
// fixture is built only when one of its benchmarks is selected.
func BenchmarkKernels(b *testing.B) {
	for _, s := range experiments.BenchSuites {
		b.Run(s.Name, func(b *testing.B) {
			benches, err := s.Table()
			if err != nil {
				b.Fatal(err)
			}
			for _, bn := range benches {
				b.Run(bn.Name, bn.Run)
			}
		})
	}
}

// BenchmarkSimplex measures the LP substrate on a dense assignment-ish
// relaxation.
func BenchmarkSimplex(b *testing.B) {
	n := 40
	p := lp.NewProblem(n * n)
	for i := 0; i < n; i++ {
		var rowR, rowC []lp.Coef
		for j := 0; j < n; j++ {
			p.SetObj(i*n+j, float64((i*7+j*13)%17))
			p.SetBounds(i*n+j, 0, 1)
			rowR = append(rowR, lp.Coef{Col: i*n + j, Val: 1})
			rowC = append(rowC, lp.Coef{Col: j*n + i, Val: 1})
		}
		p.AddRow(rowR, lp.EQ, 1)
		p.AddRow(rowC, lp.EQ, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := lp.Solve(p); s.Status != lp.Optimal {
			b.Fatalf("status %v", s.Status)
		}
	}
}

// buildBenchModel compiles a CoPhy BIP for solver benchmarks.
func buildBenchModel(b *testing.B, queries int) *lagrange.Model {
	b.Helper()
	cat := tpch.Build(tpch.Config{ScaleFactor: 1})
	eng := engine.New(cat, engine.SystemA())
	w := workload.Hom(workload.HomConfig{Queries: queries, Seed: 5})
	ad := cophy.NewAdvisor(cat, eng, cophy.Options{})
	s := cophy.Candidates(cat, w, cophy.CGenOptions{Covering: true})
	inst := cophy.InstanceForTest(ad, w, s)
	ad.Inum.Prepare(w)
	m, err := cophy.BuildModel(inst)
	if err != nil {
		b.Fatal(err)
	}
	m.Budget = 0.5 * float64(cat.TotalBytes())
	return m
}

// --- Ablation benchmarks (design choices called out in DESIGN.md) ---

// BenchmarkAblationRelaxOn/Off quantify the Lagrangian relax(B) step
// (Figure 3 line 3): with it the solver closes to the gap tolerance;
// without it the bound never moves off the index-free floor.
func BenchmarkAblationRelaxOn(b *testing.B) {
	m := buildBenchModel(b, 30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := lagrange.Solve(m, lagrange.Options{GapTol: 0.05, RootIters: 160, MaxNodes: 16})
		b.ReportMetric(r.Gap, "gap")
	}
}

func BenchmarkAblationRelaxOff(b *testing.B) {
	m := buildBenchModel(b, 30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := lagrange.Solve(m, lagrange.Options{GapTol: 0.05, RootIters: 160, MaxNodes: 16, DisableRelaxation: true})
		b.ReportMetric(r.Gap, "gap")
	}
}

// BenchmarkAblationWarmStartCold/Warm quantify dual warm starts — the
// mechanism behind interactive re-tuning (Figure 6b).
func BenchmarkAblationWarmStartCold(b *testing.B) {
	m := buildBenchModel(b, 40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := lagrange.Solve(m, lagrange.Options{GapTol: 0.05, RootIters: 400, MaxNodes: 16})
		b.ReportMetric(float64(r.Iters), "iters")
	}
}

func BenchmarkAblationWarmStartWarm(b *testing.B) {
	m := buildBenchModel(b, 40)
	seed := lagrange.Solve(m, lagrange.Options{GapTol: 0.05, RootIters: 400, MaxNodes: 16})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := lagrange.Solve(m, lagrange.Options{
			GapTol: 0.05, RootIters: 400, MaxNodes: 16,
			Warm: seed.Lambda, Start: seed.Selected,
		})
		b.ReportMetric(float64(r.Iters), "iters")
	}
}

// BenchmarkAblationINUM vs RawWhatIf: the per-evaluation gap INUM
// opens over direct what-if optimization, the enabler of the whole
// BIP formulation.
func BenchmarkAblationINUMEval(b *testing.B) {
	cat := tpch.Build(tpch.Config{ScaleFactor: 1})
	eng := engine.New(cat, engine.SystemA())
	base := engine.NewConfig(tpch.BaselineIndexes(cat)...)
	w := workload.Hom(workload.HomConfig{Queries: 30, Seed: 6})
	cache := inum.New(eng)
	cache.Prepare(w)
	cfg := base.Union(engine.NewConfig(&catalog.Index{Table: "orders", Key: []string{"o_orderdate"}}))
	if _, err := cache.WorkloadCost(w, cfg); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cache.WorkloadCost(w, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationRawWhatIfEval(b *testing.B) {
	cat := tpch.Build(tpch.Config{ScaleFactor: 1})
	eng := engine.New(cat, engine.SystemA())
	base := engine.NewConfig(tpch.BaselineIndexes(cat)...)
	w := workload.Hom(workload.HomConfig{Queries: 30, Seed: 6})
	cfg := base.Union(engine.NewConfig(&catalog.Index{Table: "orders", Key: []string{"o_orderdate"}}))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.WorkloadCost(w, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationILPPruneK sweeps ILP's per-query configuration
// pruning: larger K costs build time for (slightly) better models —
// the trade-off CoPhy avoids by not enumerating configurations at all.
func benchILPPrune(b *testing.B, k int) {
	cat := tpch.Build(tpch.Config{ScaleFactor: 1})
	eng := engine.New(cat, engine.SystemA())
	w := workload.Hom(workload.HomConfig{Queries: 25, Seed: 7})
	s := cophy.Candidates(cat, w, cophy.CGenOptions{Covering: true})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ad := ilp.New(cat, eng, nil, ilp.Options{PerQuery: k})
		if _, err := ad.Recommend(w, s, float64(cat.TotalBytes())); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationILPPruneK5(b *testing.B)  { benchILPPrune(b, 5) }
func BenchmarkAblationILPPruneK20(b *testing.B) { benchILPPrune(b, 20) }
func BenchmarkAblationILPPruneK50(b *testing.B) { benchILPPrune(b, 50) }
