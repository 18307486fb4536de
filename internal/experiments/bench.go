package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/cophy"
	"repro/internal/engine"
	"repro/internal/inum"
	"repro/internal/lagrange"
	"repro/internal/lp"
	"repro/internal/tpch"
	"repro/internal/workload"
)

// BenchResult is one exported benchmark measurement — the schema of
// the BENCH_*.json regression files future PRs diff against.
type BenchResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Iterations  int     `json:"iterations"`
}

func toResult(name string, r testing.BenchmarkResult) BenchResult {
	return BenchResult{
		Name:        name,
		NsPerOp:     float64(r.NsPerOp()),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		Iterations:  r.N,
	}
}

// benchEnv is the shared fixture of the micro-benchmarks: a TPC-H
// catalog, engine, baseline, prepared INUM cache and a candidate set.
type benchEnv struct {
	cat   *catalog.Catalog
	eng   *engine.Engine
	base  *engine.Config
	w     *workload.Workload
	cache *inum.Cache
	s     []*catalog.Index
}

func newBenchEnv(queries int) *benchEnv {
	cat := tpch.Build(tpch.Config{ScaleFactor: 1})
	eng := engine.New(cat, engine.SystemA())
	w := workload.Hom(workload.HomConfig{Queries: queries, Seed: 5})
	cache := inum.New(eng)
	cache.Prepare(w)
	return &benchEnv{
		cat:   cat,
		eng:   eng,
		base:  engine.NewConfig(tpch.BaselineIndexes(cat)...),
		w:     w,
		cache: cache,
		s:     cophy.Candidates(cat, w, cophy.CGenOptions{Covering: true}),
	}
}

// Bench is one registered micro-benchmark: a name within its suite
// and the benchmark body.
type Bench struct {
	Name string
	Run  func(b *testing.B)
}

// BenchSuite is one named benchmark table. Table builds the suite's
// shared fixture and returns the benchmarks over it; File is the
// BENCH_*.json the suite exports to.
type BenchSuite struct {
	Name  string
	File  string
	Table func() ([]Bench, error)
}

// BenchSuites is the one registry of the kernel micro-benchmarks.
// WriteBenchJSON runs every entry through testing.Benchmark, and the
// root bench_test.go runs the same entries as sub-benchmarks with
// b.Run, so each benchmark is defined exactly once.
var BenchSuites = []BenchSuite{
	{"INUM", "BENCH_inum.json", inumBenches},
	{"Solver", "BENCH_solver.json", solverBenches},
	{"LP", "BENCH_lp.json", lpBenches},
}

// inumBenches is the INUM cost substrate's table: raw what-if
// optimization, the direct cost(q, X) walk, the dense matrix
// compilation and its evaluation, and template preparation.
func inumBenches() ([]Bench, error) {
	e := newBenchEnv(30)

	var q *workload.Query
	for _, st := range e.w.Queries() {
		if len(st.Query.Tables) >= 4 {
			q = st.Query
			break
		}
	}
	if q == nil {
		q = e.w.Queries()[0].Query
	}
	cfg := e.base.Union(engine.NewConfig(&catalog.Index{Table: "lineitem", Key: []string{"l_shipdate"}}))
	mat := e.cache.CompileMatrix(e.w, e.s, e.base, 0)
	qm := mat.Query(q)
	sel := make([]bool, len(e.s))
	for i := range sel {
		sel[i] = i%3 == 0
	}

	// The warm-shape workload holds each query under four statement
	// IDs — distinct statements, identical shapes — so a cold prepare
	// derives one quarter of the statements and serves the rest from
	// the shape cache.
	warm := &workload.Workload{}
	for _, st := range e.w.Queries() {
		for k := 0; k < 4; k++ {
			q := *st.Query
			q.ID = fmt.Sprintf("%s#%d", st.Query.ID, k)
			warm.Statements = append(warm.Statements, &workload.Statement{Query: &q, Weight: st.Weight})
		}
	}
	recs := e.cache.ExportShapes()

	return []Bench{
		// One raw what-if optimization of a multi-way join: the unit
		// of work INUM amortizes.
		{"WhatIfOptimize", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.eng.WhatIfCost(q, e.base); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// The INUM cost evaluation that replaces a what-if call.
		{"INUMCost", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.cache.Cost(q, cfg); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"CostMatrixCompile", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e.cache.CompileMatrix(e.w, e.s, e.base, 0)
			}
		}},
		{"CostMatrixEval", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, ok := qm.Cost(sel); !ok {
					b.Fatal("infeasible")
				}
			}
		}},
		{"INUMPrepare", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				inum.New(e.eng).Prepare(e.w)
			}
		}},
		// The repeated-template regime the shape cache exists for.
		{"INUMPrepareWarmShape", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				inum.New(e.eng).Prepare(warm)
			}
		}},
		// The post-restart warm path: import the persisted shape
		// records and re-prepare the full workload. With a valid
		// payload this performs zero TemplatePlan derivations, so it
		// measures exactly what a recovered daemon pays before serving
		// warm.
		{"RestartRecovery", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := inum.New(e.eng)
				c.ImportShapes(recs)
				c.Prepare(e.w)
			}
		}},
	}, nil
}

// solverBenches is the solve pipeline's table: BIPGen model
// construction and the Lagrangian solver, cold and dual-warm-started.
func solverBenches() ([]Bench, error) {
	e := newBenchEnv(40)
	ad := cophy.NewAdvisor(e.cat, e.eng, cophy.Options{})
	ad.Inum.Prepare(e.w)
	inst := cophy.InstanceForTest(ad, e.w, e.s)
	m, err := cophy.BuildModel(inst)
	if err != nil {
		return nil, err
	}
	m.Budget = 0.5 * float64(e.cat.TotalBytes())
	seed := lagrange.Solve(m, lagrange.Options{GapTol: 0.05, RootIters: 400, MaxNodes: 16})

	return []Bench{
		{"BuildModel", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := cophy.BuildModel(inst); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"LagrangeSolve", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lagrange.Solve(m, lagrange.Options{GapTol: 0.05, RootIters: 160, MaxNodes: 16})
			}
		}},
		{"LagrangeSolveWarm", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lagrange.Solve(m, lagrange.Options{
					GapTol: 0.05, RootIters: 400, MaxNodes: 16,
					Warm: seed.Lambda, Start: seed.Selected,
				})
			}
		}},
	}, nil
}

// lpBenches is the LP substrate's table: the sparse revised simplex on
// BIP-shaped instances — lp.RandomBIPShaped over lp.BenchBIPShapes,
// the same generator and shape table the oracle property test uses —
// plus the factorization-sharing warm-start path. The sparse-vs-dense
// ratio against the test-only tableau oracle is measured in package
// lp by BenchmarkSolveSparseVsDense.
func lpBenches() ([]Bench, error) {
	var out []Bench
	for _, sh := range lp.BenchBIPShapes {
		var probs []*lp.Problem
		for seed := int64(0); seed < 8; seed++ {
			probs = append(probs, lp.RandomBIPShaped(seed, sh.NZ, sh.Blocks, sh.Side, false))
		}
		out = append(out, Bench{"SolveSparse/" + sh.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lp.Solve(probs[i%len(probs)])
			}
		}})
	}
	p := lp.RandomBIPShaped(7, 24, 12, 24, false)
	root := lp.Solve(p)
	child := p.Clone()
	child.SetBounds(0, 1, 1)
	out = append(out, Bench{"WarmSolveFactorShared", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lp.SolveFrom(child, root.Basis)
		}
	}})
	return out, nil
}

// DiffBenchJSON prints a per-benchmark delta table between a baseline
// directory's BENCH_*.json and a new run's — the comparison recipe of
// the package comment turned into a command. Regressions beyond the
// noise gate (>15% on one entry, or >5% on three or more) are flagged
// in the summary line.
//
// failOver promotes the gate from advisory to failing: when positive,
// any benchmark regressing more than failOver percent makes the call
// return an error naming the offenders. Zero keeps the historical
// never-fail behavior — the shared-runner default, until a
// pinned-hardware runner flips the flag on.
func DiffBenchJSON(baseDir, newDir string, failOver float64) error {
	files, err := filepath.Glob(filepath.Join(newDir, "BENCH_*.json"))
	if err != nil {
		return err
	}
	if len(files) == 0 {
		return fmt.Errorf("no BENCH_*.json under %s", newDir)
	}
	sort.Strings(files)
	flagged, minor, compared := 0, 0, 0
	var overFail []string
	for _, nf := range files {
		name := filepath.Base(nf)
		newRes, err := readBench(nf)
		if err != nil {
			return err
		}
		baseRes, err := readBench(filepath.Join(baseDir, name))
		if err != nil {
			fmt.Printf("%s: no baseline (%v) — skipping\n", name, err)
			continue
		}
		base := map[string]BenchResult{}
		for _, r := range baseRes {
			base[r.Name] = r
		}
		fmt.Printf("\n%s\n%-32s %14s %14s %8s\n", name, "benchmark", "base ns/op", "new ns/op", "delta")
		for _, r := range newRes {
			b, ok := base[r.Name]
			if !ok || b.NsPerOp <= 0 {
				fmt.Printf("%-32s %14s %14.0f %8s\n", r.Name, "-", r.NsPerOp, "new")
				continue
			}
			compared++
			delta := (r.NsPerOp - b.NsPerOp) / b.NsPerOp * 100
			mark := ""
			switch {
			case delta > 15:
				mark = "  <-- regression"
				flagged++
			case delta > 5:
				mark = "  <- slower"
				minor++
			}
			if failOver > 0 && delta > failOver {
				overFail = append(overFail, fmt.Sprintf("%s %+.1f%%", r.Name, delta))
			}
			fmt.Printf("%-32s %14.0f %14.0f %+7.1f%%%s\n", r.Name, b.NsPerOp, r.NsPerOp, delta, mark)
		}
	}
	switch {
	case compared == 0:
		fmt.Printf("\nno baselines compared — nothing to gate\n")
	case flagged > 0 || minor >= 3:
		fmt.Printf("\nnoise gate tripped: %d entries >15%%, %d entries >5%%\n", flagged, minor)
	default:
		fmt.Printf("\nwithin noise gate (%d benchmarks compared)\n", compared)
	}
	if len(overFail) > 0 {
		return fmt.Errorf("bench gate: %d benchmark(s) regressed beyond %.1f%%: %s",
			len(overFail), failOver, strings.Join(overFail, ", "))
	}
	return nil
}

func readBench(path string) ([]BenchResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []BenchResult
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}

// WriteBenchJSON runs the suites and writes BENCH_inum.json,
// BENCH_solver.json and BENCH_lp.json into dir — the perf-trajectory
// artifacts the benchmark regression harness tracks across PRs.
func WriteBenchJSON(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, s := range BenchSuites {
		benches, err := s.Table()
		if err != nil {
			return fmt.Errorf("%s: %w", s.File, err)
		}
		results := make([]BenchResult, len(benches))
		for i, bn := range benches {
			results[i] = toResult(bn.Name, testing.Benchmark(bn.Run))
		}
		data, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			return err
		}
		path := filepath.Join(dir, s.File)
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d benchmarks)\n", path, len(results))
	}
	return nil
}
