package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/inum"
	"repro/internal/tpch"
	"repro/internal/workload"
)

// relTol is the relative tolerance of the equality and ordering checks:
// the solver's estimate and an independent recomputation sum the same
// per-statement costs, so they agree up to float rounding.
const relTol = 1e-9

// checker verifies recommendations against the cost models:
//
//   - the proven lower bound is at most the estimate;
//   - the selected indexes fit the storage budget;
//   - the estimate, recomputed with inum.Cache.WorkloadCost from the
//     selected configuration, equals the solver's estimate;
//   - the what-if optimizer's ground truth (engine.WorkloadCost) is at
//     most the INUM estimate, since INUM never undercuts the optimizer.
//
// Per-statement costs are memoized (costMemo), so checking hundreds of
// recommendations over a slowly changing live workload stays cheap.
type checker struct {
	cat    *catalog.Catalog
	eng    *engine.Engine
	inum   *inum.Cache
	base   *engine.Config
	budget float64

	inumMemo *costMemo
	truth    *costMemo
}

func newChecker(cat *catalog.Catalog, eng *engine.Engine) *checker {
	return &checker{
		cat:      cat,
		eng:      eng,
		inum:     inum.New(eng),
		base:     engine.NewConfig(tpch.BaselineIndexes(cat)...),
		budget:   budgetFraction * float64(cat.TotalBytes()),
		inumMemo: newCostMemo(),
		truth:    newCostMemo(),
	}
}

// configOf is the baseline plus the selected indexes: X* ∪ X0.
func (c *checker) configOf(ixs []*catalog.Index) *engine.Config {
	cfg := engine.NewConfig(c.base.Indexes()...)
	for _, ix := range ixs {
		cfg.Add(ix)
	}
	return cfg
}

// costMemo memoizes per-statement costs. A statement's cost depends
// only on the statement and on the configuration's indexes on the
// tables it reads or updates, so that is the key. Statements are told
// apart by identity, not by their text: the text rounds predicate
// positions to three decimals, and live-workload snapshots share their
// statement structures anyway.
type costMemo struct {
	ids   map[any]string // *workload.Query or *workload.Update → memo ID
	costs map[string]float64
}

func newCostMemo() *costMemo {
	return &costMemo{ids: make(map[any]string), costs: make(map[string]float64)}
}

// sum returns Σ f_q · cost(q, cfg), calling cost for statements not
// yet priced under the relevant part of cfg.
func (m *costMemo) sum(w *workload.Workload, cfg *engine.Config, cost func(*workload.Statement) (float64, error)) (float64, error) {
	sigs := make(map[string]string)
	sig := func(table string) string {
		v, ok := sigs[table]
		if !ok {
			var ids []string
			for _, ix := range cfg.OnTable(table) {
				ids = append(ids, ix.ID())
			}
			sort.Strings(ids)
			v = strings.Join(ids, ",")
			sigs[table] = v
		}
		return v
	}
	var b strings.Builder
	var total float64
	for _, s := range w.Statements {
		var ptr any = s.Query
		tables := []string{}
		if s.Query != nil {
			tables = s.Query.Tables
		} else {
			ptr = s.Update
			tables = append(tables, s.Update.Table)
		}
		id, ok := m.ids[ptr]
		if !ok {
			id = strconv.Itoa(len(m.ids))
			m.ids[ptr] = id
		}
		b.Reset()
		b.WriteString(id)
		for _, t := range tables {
			b.WriteByte('|')
			b.WriteString(sig(t))
		}
		v, ok := m.costs[b.String()]
		if !ok {
			var err error
			if v, err = cost(s); err != nil {
				return 0, err
			}
			m.costs[b.String()] = v
		}
		total += s.Weight * v
	}
	return total, nil
}

// inumCost is Σ f_q · INUM cost(q, cfg), the quantity the solver's
// estimate reports; cache is the INUM cache to price with.
func (c *checker) inumCost(cache *inum.Cache, w *workload.Workload, cfg *engine.Config) (float64, error) {
	if cache != c.inum {
		return cache.WorkloadCost(w, cfg)
	}
	return c.inumMemo.sum(w, cfg, func(s *workload.Statement) (float64, error) { return cache.StatementCost(s, cfg) })
}

// groundTruth is Σ f_q · cost(q, cfg) from the what-if optimizer.
func (c *checker) groundTruth(w *workload.Workload, cfg *engine.Config) (float64, error) {
	return c.truth.sum(w, cfg, func(s *workload.Statement) (float64, error) { return c.eng.StatementCost(s, cfg) })
}

// near reports whether a and b agree within relTol.
func near(a, b float64) bool {
	return math.Abs(a-b) <= relTol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// verdict is the outcome of checking one recommendation.
type verdict struct {
	problems    []string
	improvement float64 // ground truth 1 − cost(X*∪X0)/cost(X0)
}

// recommendation checks one recommendation over workload w. cache
// prices the INUM recomputation (the advisor's own cache for in-process
// sessions, the checker's for daemon responses).
func (c *checker) recommendation(cache *inum.Cache, w *workload.Workload, ixs []*catalog.Index, est, lower float64) verdict {
	var v verdict
	bad := func(format string, args ...any) { v.problems = append(v.problems, fmt.Sprintf(format, args...)) }
	if lower > est && !near(lower, est) {
		bad("lower bound %.6g exceeds estimate %.6g", lower, est)
	}
	var bytes int64
	for _, ix := range ixs {
		t := c.cat.Table(ix.Table)
		if t == nil {
			bad("index on unknown table %q", ix.Table)
			continue
		}
		bytes += ix.Bytes(t)
	}
	if float64(bytes) > c.budget {
		bad("index storage %d B exceeds budget %.0f B", bytes, c.budget)
	}
	cfg := c.configOf(ixs)
	recomputed, err := c.inumCost(cache, w, cfg)
	if err != nil {
		bad("INUM recomputation: %v", err)
	} else if !near(recomputed, est) {
		bad("estimate %.10g differs from INUM recomputation %.10g", est, recomputed)
	}
	truth, err := c.groundTruth(w, cfg)
	if err != nil {
		bad("ground truth: %v", err)
		return v
	}
	if truth > est && !near(truth, est) {
		bad("optimizer ground truth %.6g undercut by INUM estimate %.6g", truth, est)
	}
	base, err := c.groundTruth(w, c.base)
	if err != nil || base <= 0 {
		bad("baseline ground truth: %v", err)
		return v
	}
	v.improvement = 1 - truth/base
	return v
}
