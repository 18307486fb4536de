package cophy

import (
	"fmt"
	"math"
	"time"

	"repro/internal/bip"
	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/inum"
	"repro/internal/lagrange"
	"repro/internal/lp"
	"repro/internal/par"
	"repro/internal/workload"
)

// Instance bundles one index-tuning problem: the workload, the
// candidate set S, the INUM cache providing the linearly composable
// cost function, and the baseline configuration X0 (the clustered
// primary-key indexes that are always present, cost nothing and do not
// count against the storage budget).
type Instance struct {
	Cat      *catalog.Catalog
	Eng      *engine.Engine
	Inum     *inum.Cache
	Workload *workload.Workload
	S        []*catalog.Index
	Baseline *engine.Config
	// Workers bounds BuildModel's worker pool (0 = GOMAXPROCS). Tests
	// raise it above the core count to exercise the concurrent paths.
	Workers int
}

// BuildModel implements BIPGen: it compiles the instance into the
// structured BIP of Theorem 1. Per query q and template plan k it
// emits one choice with fixed cost β_qk whose slots carry one option
// per compatible candidate (cost γ_qkia), plus the I∅ option priced as
// the best always-available access (heap scan or baseline clustered
// index). Candidate update-maintenance costs become the z_a objective
// coefficients, base-tuple update costs the constant term.
//
// The γ values come from the dense CostMatrix compiled once per
// instance rather than per-coefficient map probes, and the per-query
// blocks — independent by Theorem 1 — are built by a worker pool into
// preallocated positions, so the emitted model is bit-identical to a
// serial build. BuildTime in the advisor's breakdown measures this
// function; its cheapness relative to ILP's configuration enumeration
// is the heart of Figure 5. BuildModel is buildModel on an empty memo.
func BuildModel(inst *Instance) (*lagrange.Model, error) {
	m, _, err := buildModel(inst, nil)
	return m, err
}

// bipMemo is BIPGen's per-statement memo, carried by a Session from one
// solve to the next. Theorem 1 makes every statement's block a function
// of that statement and the candidates on its tables alone, so an entry
// compiled over candidate list s stays exact for any later list that
// keeps s as its prefix and appends nothing on the statement's tables.
// Entries are keyed by statement ID: an ID always names the same
// statement (the INUM cache's contract too).
type bipMemo struct {
	// s is the candidate list the entries were compiled over.
	s []*catalog.Index
	// blocks holds each query block's choices, keyed by the ID of the
	// query (or update shell) as Workload.Queries yields it.
	blocks map[string][]lagrange.Choice
	// updates holds each UPDATE's maintenance costs, keyed by its ID.
	updates map[string]*updateCosts
}

// updateCosts is one UPDATE's share of the model: its base-tuple cost
// and its nonzero per-candidate maintenance costs, positions ascending.
type updateCosts struct {
	base float64
	pos  []int32
	cost []float64
}

// buildModel is BIPGen over a memo from an earlier build (nil for
// none). It recompiles only the statements whose entry is missing or
// stale and returns, with the model, the memo for the next build: the
// entries of the current workload's statements only, so the memo
// shrinks with the workload. Reused choices are shared with the memo's
// earlier models (lagrange.Block.Choices is read-only once built);
// weights, the constant term and the update-cost sums are always
// recomputed, in workload order, from the current statements.
func buildModel(inst *Instance, prev *bipMemo) (*lagrange.Model, *bipMemo, error) {
	m := lagrange.NewModel(len(inst.S))
	for i, ix := range inst.S {
		t := inst.Cat.Table(ix.Table)
		if t == nil {
			return nil, nil, fmt.Errorf("cophy: candidate %s references unknown table", ix.ID())
		}
		m.Size[i] = float64(ix.Bytes(t))
	}

	// An entry is stale when the candidate prefix it was compiled over
	// changed, or when a candidate appended since is on one of its
	// statement's tables (those are the only candidates its slots or
	// maintenance costs could involve).
	if prev != nil && !samePrefix(prev.s, inst.S) {
		prev = nil
	}
	var fresh map[string]bool
	if prev != nil {
		fresh = make(map[string]bool)
		for _, ix := range inst.S[len(prev.s):] {
			fresh[ix.Table] = true
		}
	}
	next := &bipMemo{s: inst.S}

	// Update costs: FixedCost[a] = Σ_u f_u·ucost(a,u); Const gathers
	// the index-independent base-tuple costs. Missing entries are
	// computed one worker-pool task per UPDATE; the sums then run
	// serially in workload order, so every coefficient is exact and
	// deterministic whichever entries were reused.
	updates := inst.Workload.Updates()
	if len(updates) > 0 {
		next.updates = make(map[string]*updateCosts, len(updates))
		var miss []*workload.Update
		for _, s := range updates {
			u := s.Update
			if _, dup := next.updates[u.ID]; dup {
				continue
			}
			var uc *updateCosts
			if prev != nil && !fresh[u.Table] {
				uc = prev.updates[u.ID]
			}
			if uc == nil {
				miss = append(miss, u)
			}
			next.updates[u.ID] = uc
		}
		computed := make([]*updateCosts, len(miss))
		par.For(len(miss), inst.Workers, func(k int) {
			u := miss[k]
			uc := &updateCosts{base: inst.Eng.BaseUpdateCost(u)}
			for a, ix := range inst.S {
				if c := inst.Eng.UpdateCost(u, ix); c > 0 {
					uc.pos = append(uc.pos, int32(a))
					uc.cost = append(uc.cost, c)
				}
			}
			computed[k] = uc
		})
		for k, u := range miss {
			next.updates[u.ID] = computed[k]
		}
		for _, s := range updates {
			uc := next.updates[s.Update.ID]
			m.Const += s.Weight * uc.base
			for k, a := range uc.pos {
				m.FixedCost[a] += s.Weight * uc.cost[k]
			}
		}
	}

	// Query blocks: reused choices where the entry holds, the rest from
	// a dense γ matrix compiled over the missing statements only, one
	// worker-pool task per statement written into its preallocated
	// position.
	stmts := inst.Workload.Queries()
	blocks := make([]lagrange.Block, len(stmts))
	next.blocks = make(map[string][]lagrange.Choice, len(stmts))
	var miss []int
	var missW workload.Workload
	for i, s := range stmts {
		q := s.Query
		blocks[i] = lagrange.Block{ID: q.ID, Weight: s.Weight}
		if prev != nil && !onTables(fresh, q.Tables) {
			if ch, ok := prev.blocks[q.ID]; ok {
				blocks[i].Choices = ch
				next.blocks[q.ID] = ch
				continue
			}
		}
		miss = append(miss, i)
		missW.Statements = append(missW.Statements, s)
	}
	if len(miss) > 0 {
		mat := inst.Inum.CompileMatrix(&missW, inst.S, inst.Baseline, inst.Workers)
		errs := make([]error, len(miss))
		par.For(len(miss), inst.Workers, func(k int) {
			blk := &blocks[miss[k]]
			qm := mat.Query(stmts[miss[k]].Query)
			if qm == nil || len(qm.Internal) == 0 {
				errs[k] = fmt.Errorf("cophy: no templates for %s", blk.ID)
				return
			}
			blk.Choices, errs[k] = buildChoices(blk.ID, qm)
		})
		for _, err := range errs {
			if err != nil {
				return nil, nil, err
			}
		}
		for _, i := range miss {
			next.blocks[blocks[i].ID] = blocks[i].Choices
		}
	}
	m.Blocks = blocks
	return m, next, nil
}

// buildChoices emits one query block's choices from its dense γ slab.
func buildChoices(queryID string, qm *inum.QueryMatrix) ([]lagrange.Choice, error) {
	var choices []lagrange.Choice
	for ti := 0; ti < len(qm.Internal); ti++ {
		ch := lagrange.Choice{Fixed: qm.Internal[ti]}
		feasible := true
		for si := qm.TmplOff[ti]; si < qm.TmplOff[ti+1]; si++ {
			free := qm.SlotFree[si]
			var slot lagrange.Slot
			if !math.IsInf(free, 1) {
				slot = append(slot, lagrange.Option{Index: lagrange.NoIndex, Cost: free})
			}
			for k := qm.SlotOff[si]; k < qm.SlotOff[si+1]; k++ {
				// An option is useful only if it can beat the free one.
				if g := qm.Gamma[k]; g < free {
					slot = append(slot, lagrange.Option{Index: qm.Compat[k], Cost: g})
				}
			}
			if len(slot) == 0 {
				feasible = false
				break
			}
			ch.Slots = append(ch.Slots, slot)
		}
		if feasible {
			choices = append(choices, ch)
		}
	}
	if len(choices) == 0 {
		return nil, fmt.Errorf("cophy: no feasible choice for %s", queryID)
	}
	return choices, nil
}

// samePrefix reports whether cur keeps every candidate of old at its
// position. Sessions only append, so pointer identity suffices; any
// other change (Compact, a new session) reads as a changed prefix.
func samePrefix(old, cur []*catalog.Index) bool {
	if len(old) > len(cur) {
		return false
	}
	for i, ix := range old {
		if cur[i] != ix {
			return false
		}
	}
	return true
}

// onTables reports whether any of tables is in set.
func onTables(set map[string]bool, tables []string) bool {
	for _, t := range tables {
		if set[t] {
			return true
		}
	}
	return false
}

// BuildExplicitBIP constructs the BIP of Theorem 1 literally — one
// binary y_{qk} per template, one x_{qkia} per slot option, one z_a
// per candidate — over the generic lp/bip substrate. It exists to
// validate the theorem (the structured solver and this program must
// agree) and to solve small constraint-rich instances exactly. For a
// model with B blocks it allocates Σ options + Σ templates + |S|
// variables; each emitted constraint row (a handful of ±1 entries)
// lands directly in the problem's CSC column store, which is the
// layout the sparse revised simplex pivots over — no dense m×n
// intermediate exists at any point.
func BuildExplicitBIP(m *lagrange.Model) (bip.Model, []int) {
	// Count variables.
	nz := m.NumIndexes
	ny, nx := 0, 0
	for bi := range m.Blocks {
		ny += len(m.Blocks[bi].Choices)
		for ci := range m.Blocks[bi].Choices {
			for _, s := range m.Blocks[bi].Choices[ci].Slots {
				nx += len(s)
			}
		}
	}
	p := lp.NewProblem(nz + ny + nx)
	bins := make([]int, 0, nz+ny+nx)

	// z variables first.
	for a := 0; a < nz; a++ {
		p.SetObj(a, m.FixedCost[a])
		p.SetBounds(a, 0, 1)
		bins = append(bins, a)
	}
	yBase := nz
	xBase := nz + ny

	yi, xi := 0, 0
	for bi := range m.Blocks {
		blk := &m.Blocks[bi]
		var yRow []lp.Coef
		for ci := range blk.Choices {
			ch := &blk.Choices[ci]
			yVar := yBase + yi
			yi++
			p.SetObj(yVar, blk.Weight*ch.Fixed)
			p.SetBounds(yVar, 0, 1)
			bins = append(bins, yVar)
			yRow = append(yRow, lp.Coef{Col: yVar, Val: 1})
			for _, s := range ch.Slots {
				// Σ_a x = y  (assignment row per slot).
				row := []lp.Coef{{Col: yVar, Val: -1}}
				for _, o := range s {
					xVar := xBase + xi
					xi++
					p.SetObj(xVar, blk.Weight*o.Cost)
					p.SetBounds(xVar, 0, 1)
					bins = append(bins, xVar)
					row = append(row, lp.Coef{Col: xVar, Val: 1})
					if o.Index != lagrange.NoIndex {
						// z_a ≥ x.
						p.AddRow([]lp.Coef{{Col: int(o.Index), Val: 1}, {Col: xVar, Val: -1}}, lp.GE, 0)
					}
				}
				p.AddRow(row, lp.EQ, 0)
			}
		}
		// Σ_k y = 1.
		p.AddRow(yRow, lp.EQ, 1)
	}

	// Storage budget and side constraints.
	if m.Budget >= 0 {
		var row []lp.Coef
		for a := 0; a < nz; a++ {
			if m.Size[a] != 0 {
				row = append(row, lp.Coef{Col: a, Val: m.Size[a]})
			}
		}
		p.AddRow(row, lp.LE, m.Budget)
	}
	for _, c := range m.Extra {
		var row []lp.Coef
		for _, t := range c.Terms {
			row = append(row, lp.Coef{Col: int(t.Index), Val: t.Coef})
		}
		p.AddRow(row, c.Sense, c.RHS)
	}
	zVars := make([]int, nz)
	for a := range zVars {
		zVars[a] = a
	}
	return bip.Model{P: p, Binaries: bins}, zVars
}

// Timings is the per-phase breakdown the paper's Figures 5 and 10
// report: INUM cache population, BIP construction and solving.
type Timings struct {
	INUM  time.Duration
	Build time.Duration
	Solve time.Duration
}

// Total returns the end-to-end advisor time.
func (t Timings) Total() time.Duration { return t.INUM + t.Build + t.Solve }
