// Package cophy implements the CoPhy index advisor (§4 of the paper):
// candidate generation (CGen), construction of the compact BIP of
// Theorem 1 (BIPGen), the Solver with its Lagrangian relax(B) step,
// the constraint language of Appendix E, soft constraints with
// Chord-approximated Pareto curves, continuous optimality-gap feedback
// for early termination, and warm-started interactive re-tuning.
package cophy

import (
	"math/rand"
	"sort"

	"repro/internal/catalog"
	"repro/internal/workload"
)

// CGenOptions tune candidate generation.
type CGenOptions struct {
	// MaxKeyCols caps composite key width (default 3).
	MaxKeyCols int
	// Covering adds covering variants (key + INCLUDE of the query's
	// remaining columns). Default on.
	Covering bool
	// DBA holds administrator-supplied candidates (S_DBA) merged into
	// the result.
	DBA []*catalog.Index
}

// Candidates implements CGen: it examines every statement of the
// workload and emits a large per-query candidate set from the
// referenced columns, without aggressive pruning — CoPhy delegates
// pruning to the solver (§4). The union is deduplicated and returned
// in deterministic order. It is a fresh CGen's first call.
func Candidates(cat *catalog.Catalog, w *workload.Workload, opts CGenOptions) []*catalog.Index {
	return NewCGen(cat, opts).Candidates(w)
}

// CGen is candidate generation memoized per statement, for callers that
// regenerate candidates over successive snapshots of one living
// workload. A statement's candidates depend on nothing but the
// statement, so its list is kept under its statement ID (an ID always
// names the same statement, the contract the INUM cache also relies
// on) and only statements not seen by the previous call are examined.
// Every distinct candidate is interned with its ID string: lists share
// one *catalog.Index per ID and the union never recomputes an ID.
//
// The memo is rebuilt on every call from the current workload's
// statements only, so it shrinks with the live set. A CGen is not safe
// for concurrent use.
type CGen struct {
	cat  *catalog.Catalog
	opts CGenOptions
	// lists maps a statement ID (of Workload.Queries) to the interned
	// candidates it emitted, repeats included; pool interns the union
	// of the previous call by ID.
	lists map[string][]*internedIndex
	pool  map[string]*internedIndex
}

// internedIndex is one candidate with its ID computed once.
type internedIndex struct {
	ix *catalog.Index
	id string
}

// NewCGen builds an empty candidate-generation memo.
func NewCGen(cat *catalog.Catalog, opts CGenOptions) *CGen {
	if opts.MaxKeyCols <= 0 {
		opts.MaxKeyCols = 3
	}
	return &CGen{cat: cat, opts: opts}
}

// Candidates returns CGen's candidate set for w — the same list, in the
// same order, as Candidates(cat, w, opts) — reusing the lists of
// statements the previous call already examined.
func (g *CGen) Candidates(w *workload.Workload) []*catalog.Index {
	stmts := w.Queries()
	lists := make(map[string][]*internedIndex, len(stmts))
	union := make(map[string]*internedIndex, len(g.pool))
	var out []*internedIndex
	take := func(c *internedIndex) {
		if union[c.id] == nil {
			union[c.id] = c
			out = append(out, c)
		}
	}
	for _, s := range stmts {
		id := s.Query.ID
		if _, dup := lists[id]; dup {
			continue
		}
		list, ok := g.lists[id]
		if ok {
			for _, c := range list {
				take(c)
			}
		} else {
			perQueryCandidates(s.Query, g.opts, func(ix *catalog.Index) {
				if !g.valid(ix) {
					return
				}
				key := ix.ID()
				c := union[key]
				if c == nil {
					if c = g.pool[key]; c == nil {
						c = &internedIndex{ix: ix, id: key}
					}
					take(c)
				}
				list = append(list, c)
			})
		}
		lists[id] = list
	}
	g.lists, g.pool = lists, union

	// Administrator-supplied candidates join the result but not the
	// pool; the last DBA value of an ID stands for it in the result.
	dba := make(map[string]*catalog.Index, len(g.opts.DBA))
	for _, ix := range g.opts.DBA {
		if !g.valid(ix) {
			continue
		}
		key := ix.ID()
		if _, dup := dba[key]; !dup && union[key] == nil {
			out = append(out, &internedIndex{ix: ix, id: key})
		}
		dba[key] = ix
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	res := make([]*catalog.Index, len(out))
	for i, c := range out {
		res[i] = c.ix
		if ix, ok := dba[c.id]; ok {
			res[i] = ix
		}
	}
	return res
}

// valid reports whether ix is a usable candidate: a non-empty key over
// existing columns of an existing table.
func (g *CGen) valid(ix *catalog.Index) bool {
	if ix == nil || len(ix.Key) == 0 {
		return false
	}
	t := g.cat.Table(ix.Table)
	if t == nil {
		return false
	}
	for _, k := range ix.Key {
		if t.Column(k) == nil {
			return false
		}
	}
	return true
}

// perQueryCandidates emits the candidates suggested by one query,
// following the standard heuristics from the literature: indexes on
// predicate columns (equality prefix + one range column), join
// columns, group-by and order-by sequences, and covering variants.
func perQueryCandidates(q *workload.Query, opts CGenOptions, add func(*catalog.Index)) {
	for _, table := range q.Tables {
		var eqCols, rangeCols []string
		seenPred := map[string]bool{}
		for _, p := range q.PredsOf(table) {
			c := p.Col.Column
			if seenPred[c] {
				continue
			}
			seenPred[c] = true
			if p.Op == workload.OpEq {
				eqCols = append(eqCols, c)
			} else {
				rangeCols = append(rangeCols, c)
			}
		}
		joinCols := q.JoinColsOf(table)
		var groupCols, orderCols []string
		for _, g := range q.GroupBy {
			if g.Table == table {
				groupCols = append(groupCols, g.Column)
			}
		}
		for _, o := range q.OrderBy {
			if o.Table == table {
				orderCols = append(orderCols, o.Column)
			}
		}
		needCols := q.ColumnsOf(table)

		emit := func(key []string) {
			if len(key) == 0 {
				return
			}
			if len(key) > opts.MaxKeyCols {
				key = key[:opts.MaxKeyCols]
			}
			key = dedupeCols(key)
			add(&catalog.Index{Table: table, Key: key})
			if opts.Covering {
				inc := subtractCols(needCols, key)
				if len(inc) > 0 {
					add(&catalog.Index{Table: table, Key: key, Include: inc})
				}
			}
		}

		// Single-column indexes on every interesting column.
		for _, c := range eqCols {
			emit([]string{c})
		}
		for _, c := range rangeCols {
			emit([]string{c})
		}
		for _, c := range joinCols {
			emit([]string{c})
		}

		// Equality prefix plus one range column (classic sargable
		// composite).
		for _, rc := range rangeCols {
			emit(append(append([]string{}, eqCols...), rc))
		}
		if len(eqCols) > 1 {
			emit(eqCols)
		}

		// Join column compositions: join col first (for lookups) and
		// eq-prefix first (for sargable scans ending at the join col).
		for _, jc := range joinCols {
			if len(eqCols) > 0 {
				emit(append([]string{jc}, eqCols...))
				emit(append(append([]string{}, eqCols...), jc))
			}
			for _, rc := range rangeCols {
				emit([]string{jc, rc})
			}
		}

		// Order-exploiting indexes.
		emit(groupCols)
		emit(orderCols)
		if len(groupCols) > 0 && len(eqCols) > 0 {
			emit(append(append([]string{}, eqCols...), groupCols...))
		}
		if len(orderCols) > 0 && len(eqCols) > 0 {
			emit(append(append([]string{}, eqCols...), orderCols...))
		}
	}
}

// dedupeCols removes duplicate columns preserving first occurrence.
func dedupeCols(cols []string) []string {
	seen := make(map[string]bool, len(cols))
	out := cols[:0:0]
	for _, c := range cols {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

// subtractCols returns cols minus the key columns, sorted for
// deterministic index identities.
func subtractCols(cols, key []string) []string {
	inKey := make(map[string]bool, len(key))
	for _, k := range key {
		inKey[k] = true
	}
	var out []string
	for _, c := range cols {
		if !inKey[c] {
			out = append(out, c)
		}
	}
	sort.Strings(out)
	return out
}

// RandomIndexes generates n syntactically valid random indexes over
// the catalog — the S_L experiment of §5.3 pads the candidate set with
// random indexes to stress solver scalability.
func RandomIndexes(cat *catalog.Catalog, n int, seed int64) []*catalog.Index {
	r := rand.New(rand.NewSource(seed))
	tables := cat.Tables()
	set := make(map[string]*catalog.Index, n)
	for attempts := 0; len(set) < n && attempts < n*50; attempts++ {
		t := tables[r.Intn(len(tables))]
		width := 1 + r.Intn(3)
		perm := r.Perm(len(t.Cols))
		key := make([]string, 0, width)
		for _, ci := range perm[:min(width, len(perm))] {
			key = append(key, t.Cols[ci].Name)
		}
		ix := &catalog.Index{Table: t.Name, Key: key}
		set[ix.ID()] = ix
	}
	out := make([]*catalog.Index, 0, len(set))
	for _, ix := range set {
		out = append(out, ix)
	}
	catalog.SortIndexes(out)
	if len(out) > n {
		out = out[:n]
	}
	return out
}
