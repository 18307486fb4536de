package lp

// The dense two-phase tableau simplex: the reference oracle the
// sparse revised simplex (sparse.go) is pinned against by the property
// tests and benchmarks of this package.

import (
	"math"
	"time"
)

// SolveDense optimizes the problem with the dense two-phase tableau
// simplex — the reference oracle the sparse path is pinned against.
func SolveDense(p *Problem) Solution {
	return SolveDenseFrom(p, nil)
}

// SolveDenseFrom is SolveDense starting from a warm basis.
func SolveDenseFrom(p *Problem, warm *Basis) Solution {
	return solveFrom(p, defaultIterBudget(p), warm)
}

// SolveDenseWithLimit is SolveDense with an explicit pivot budget.
func SolveDenseWithLimit(p *Problem, maxIters int) Solution {
	return solveFrom(p, maxIters, nil)
}

func solveFrom(p *Problem, maxIters int, warm *Basis) Solution {
	t := newTableau(p)
	t.install(warm)
	t1 := time.Now()
	st, iters1 := t.phase1(maxIters)
	p1 := time.Since(t1)
	if st != Optimal {
		return Solution{Status: st, Iters: iters1, Phase1Dur: p1}
	}
	t2 := time.Now()
	st, iters2 := t.phase2(maxIters)
	p2 := time.Since(t2)
	x := t.extract()
	obj := 0.0
	for j := 0; j < p.cols; j++ {
		obj += p.obj[j] * x[j]
	}
	return Solution{Status: st, X: x, Obj: obj, Iters: iters1 + iters2, Basis: t.captureBasis(), Phase1Dur: p1, Phase2Dur: p2}
}

// install re-establishes a previous solve's basis on a fresh tableau:
// nonbasic columns move to their recorded bounds and each row is
// pivoted onto its recorded basic column (falling back to the row's
// slack when the recorded column has gone degenerate or is already
// basic elsewhere). Phase 1 then starts from the warm point and
// typically finds nothing to repair.
func (t *tableau) install(warm *Basis) {
	if warm == nil || len(warm.cols) != t.m || len(warm.atHi) != t.n {
		return
	}
	copy(t.atHi, warm.atHi)
	for j := 0; j < t.n; j++ {
		switch {
		case t.atHi[j] && !math.IsInf(t.hi[j], 0):
			t.x[j] = t.hi[j]
		case !math.IsInf(t.lo[j], 0):
			t.x[j] = t.lo[j]
			t.atHi[j] = false
		case !math.IsInf(t.hi[j], 0):
			t.x[j] = t.hi[j]
			t.atHi[j] = true
		default:
			t.x[j] = 0
			t.atHi[j] = false
		}
	}
	for i := 0; i < t.m; i++ {
		col := warm.cols[i]
		if col < 0 || col >= t.n {
			col = t.p.cols + i // row's own slack
		}
		if t.basis[i] == col {
			continue
		}
		if math.Abs(t.a[i][col]) < pivotEps {
			col = t.p.cols + i
			if t.basis[i] == col || math.Abs(t.a[i][col]) < pivotEps {
				continue
			}
		}
		t.pivot(i, col)
		t.basis[i] = col
	}
}

// captureBasis snapshots the tableau's final basis. Artificial columns
// (possible only after a degenerate Phase 1) map to the row's slack,
// and the at-upper flags of basic columns — meaningless while basic —
// are normalized to false so a later install cannot inherit a stale
// bound side.
func (t *tableau) captureBasis() *Basis {
	b := &Basis{cols: make([]int, t.m), atHi: make([]bool, t.n)}
	copy(b.atHi, t.atHi[:t.n])
	for i, j := range t.basis {
		if j >= t.n {
			b.cols[i] = -1
		} else {
			b.cols[i] = j
			b.atHi[j] = false
		}
	}
	return b
}

// tableau is the dense simplex working state. Columns are structural
// variables, then one slack per row, then artificials as needed.
type tableau struct {
	p     *Problem
	m     int // rows
	n     int // structural + slack columns
	nArt  int
	a     [][]float64 // m × (n + nArt)
	b     []float64
	lo    []float64 // per column
	hi    []float64
	basis []int     // basic column per row
	atHi  []bool    // nonbasic-at-upper flag per column
	x     []float64 // current value per column (maintained for nonbasic)
}

func newTableau(p *Problem) *tableau {
	m := len(p.rows)
	n := p.cols + m // one slack per row
	t := &tableau{p: p, m: m, n: n}

	t.lo = make([]float64, n)
	t.hi = make([]float64, n)
	copy(t.lo, p.lo)
	copy(t.hi, p.hi)
	for i, r := range p.rows {
		j := p.cols + i
		switch r.sense {
		case LE:
			t.lo[j], t.hi[j] = 0, math.Inf(1)
		case GE:
			t.lo[j], t.hi[j] = math.Inf(-1), 0
		case EQ:
			t.lo[j], t.hi[j] = 0, 0
		}
	}

	t.a = make([][]float64, m)
	t.b = make([]float64, m)
	for i, r := range p.rows {
		t.a[i] = make([]float64, n)
		for _, c := range r.coefs {
			t.a[i][c.Col] += c.Val
		}
		t.a[i][p.cols+i] = 1
		t.b[i] = r.rhs
	}

	// Start nonbasic structural variables at their finite bound
	// nearest zero; slacks form the initial basis.
	t.x = make([]float64, n)
	t.atHi = make([]bool, n)
	for j := 0; j < p.cols; j++ {
		switch {
		case !math.IsInf(t.lo[j], 0) && (t.lo[j] >= 0 || math.IsInf(t.hi[j], 0)):
			t.x[j] = t.lo[j]
		case !math.IsInf(t.hi[j], 0):
			t.x[j] = t.hi[j]
			t.atHi[j] = true
		default:
			t.x[j] = 0
		}
	}
	t.basis = make([]int, m)
	for i := 0; i < m; i++ {
		t.basis[i] = p.cols + i
	}
	return t
}

// basicValues computes the implied values of the basic variables given
// the nonbasic variables' positions.
func (t *tableau) basicValues() []float64 {
	v := make([]float64, t.m)
	for i := 0; i < t.m; i++ {
		sum := t.b[i]
		for j := 0; j < t.n+t.nArt; j++ {
			if j == t.basis[i] {
				continue
			}
			if t.x[j] != 0 {
				sum -= t.a[i][j] * t.x[j]
			}
		}
		// Basis is maintained in eliminated form: column of basis[i]
		// is the i-th unit vector, so the basic value is sum directly.
		v[i] = sum
	}
	return v
}

// phase1 establishes a feasible basis by adding artificial variables
// for rows whose slack cannot absorb the right-hand side, then
// minimizing their sum.
func (t *tableau) phase1(maxIters int) (Status, int) {
	// Put the tableau into eliminated (canonical) form: for the
	// initial slack basis the matrix already is. Compute slack values;
	// rows whose slack violates its bounds get an artificial.
	vals := t.basicValues()
	var artRows []int
	for i := 0; i < t.m; i++ {
		j := t.basis[i]
		if vals[i] < t.lo[j]-eps || vals[i] > t.hi[j]+eps {
			artRows = append(artRows, i)
		}
	}
	if len(artRows) == 0 {
		for i, v := range vals {
			t.x[t.basis[i]] = v
		}
		return Optimal, 0
	}

	// Extend the tableau with one artificial per violating row.
	t.nArt = len(artRows)
	total := t.n + t.nArt
	for i := 0; i < t.m; i++ {
		t.a[i] = append(t.a[i], make([]float64, t.nArt)...)
	}
	t.lo = append(t.lo, make([]float64, t.nArt)...)
	t.hi = append(t.hi, make([]float64, t.nArt)...)
	t.x = append(t.x, make([]float64, t.nArt)...)
	t.atHi = append(t.atHi, make([]bool, t.nArt)...)

	phase1Obj := make([]float64, total)
	for k, i := range artRows {
		j := t.n + k
		old := t.basis[i]
		// Pin the old slack at the bound it violated toward, and make
		// the artificial absorb the residual with the right sign.
		resid := vals[i]
		if resid < t.lo[old] {
			t.x[old] = t.lo[old]
			t.atHi[old] = false
			resid -= t.lo[old]
		} else {
			t.x[old] = t.hi[old]
			t.atHi[old] = true
			resid -= t.hi[old]
		}
		if math.IsInf(t.x[old], 0) {
			t.x[old] = 0
		}
		if resid < 0 {
			// Normalize the row so the artificial enters with +1,
			// preserving the eliminated-form invariant of the basis.
			for col := range t.a[i] {
				t.a[i][col] = -t.a[i][col]
			}
			t.b[i] = -t.b[i]
			resid = -resid
		}
		t.a[i][j] = 1
		t.lo[j], t.hi[j] = 0, math.Inf(1)
		t.basis[i] = j
		t.x[j] = resid
		phase1Obj[j] = 1
	}

	st, iters := t.iterate(phase1Obj, maxIters)
	if st == Unbounded {
		// A minimization of nonnegative artificials cannot be
		// unbounded; treat as numeric failure.
		return Infeasible, iters
	}
	if st == IterLimit {
		return IterLimit, iters
	}
	// Check artificials are zero.
	for k := 0; k < t.nArt; k++ {
		if t.x[t.n+k] > 1e-6 {
			return Infeasible, iters
		}
	}
	// Freeze artificials at zero so phase 2 cannot reuse them.
	for k := 0; k < t.nArt; k++ {
		j := t.n + k
		t.lo[j], t.hi[j] = 0, 0
	}
	return Optimal, iters
}

func (t *tableau) phase2(maxIters int) (Status, int) {
	obj := make([]float64, t.n+t.nArt)
	copy(obj, t.p.obj)
	return t.iterate(obj, maxIters)
}

// iterate runs primal simplex pivots until optimality for the given
// objective.
func (t *tableau) iterate(obj []float64, maxIters int) (Status, int) {
	total := t.n + t.nArt
	// Reduced costs require the objective row in eliminated form:
	// d_j = c_j − c_B · B⁻¹A_j. With the tableau kept eliminated,
	// d_j = c_j − Σ_i c_{basis[i]}·a[i][j].
	iters := 0
	for ; iters < maxIters; iters++ {
		// Compute basic values (cheap: tableau is eliminated, value =
		// b' − Σ nonbasic contributions; we maintain b as eliminated
		// rhs, so track it directly).
		vals := t.basicValues()
		for i, v := range vals {
			t.x[t.basis[i]] = v
		}

		// Pricing: find the entering variable.
		enter := -1
		var enterDir float64 // +1 increase from lo, −1 decrease from hi
		bestScore := eps
		useBland := iters > maxIters/2
		for j := 0; j < total; j++ {
			if t.isBasic(j) || t.lo[j] == t.hi[j] {
				continue
			}
			d := obj[j]
			for i := 0; i < t.m; i++ {
				cb := obj[t.basis[i]]
				if cb != 0 {
					d -= cb * t.a[i][j]
				}
			}
			var score float64
			var dir float64
			switch {
			case !t.atHi[j] && d < -eps:
				score, dir = -d, 1 // increase from the lower bound
			case t.atHi[j] && d > eps:
				score, dir = d, -1 // decrease from the upper bound
			case math.IsInf(t.lo[j], 0) && math.IsInf(t.hi[j], 0) && d > eps:
				score, dir = d, -1 // free variable moving negative
			default:
				continue
			}
			if useBland {
				enter, enterDir = j, dir
				break
			}
			if score > bestScore {
				bestScore, enter, enterDir = score, j, dir
			}
		}
		if enter == -1 {
			return Optimal, iters
		}

		// Ratio test: how far can the entering variable move?
		limit := math.Inf(1)
		if !math.IsInf(t.hi[enter], 0) && !math.IsInf(t.lo[enter], 0) {
			limit = t.hi[enter] - t.lo[enter] // bound flip distance
		}
		leave := -1
		leaveToHi := false
		for i := 0; i < t.m; i++ {
			coef := t.a[i][enter] * enterDir
			if math.Abs(coef) < pivotEps {
				continue
			}
			bj := t.basis[i]
			v := t.x[bj]
			var room float64
			if coef > 0 {
				// Basic variable decreases toward its lower bound.
				if math.IsInf(t.lo[bj], 0) {
					continue
				}
				room = (v - t.lo[bj]) / coef
				if room < limit-eps {
					limit, leave, leaveToHi = room, i, false
				}
			} else {
				// Basic variable increases toward its upper bound.
				if math.IsInf(t.hi[bj], 0) {
					continue
				}
				room = (v - t.hi[bj]) / coef
				if room < limit-eps {
					limit, leave, leaveToHi = room, i, true
				}
			}
		}
		if math.IsInf(limit, 1) {
			return Unbounded, iters
		}
		if limit < 0 {
			limit = 0
		}

		if leave == -1 {
			// Bound flip: the entering variable moves to its other
			// bound; the basis is unchanged.
			t.atHi[enter] = !t.atHi[enter]
			if t.atHi[enter] {
				t.x[enter] = t.hi[enter]
			} else {
				t.x[enter] = t.lo[enter]
			}
			continue
		}

		// Pivot: entering variable becomes basic at row `leave`.
		out := t.basis[leave]
		t.pivot(leave, enter)
		t.basis[leave] = enter
		t.atHi[out] = leaveToHi
		if leaveToHi {
			t.x[out] = t.hi[out]
		} else {
			t.x[out] = t.lo[out]
		}
		if math.IsInf(t.x[out], 0) {
			t.x[out] = 0
		}
	}
	return IterLimit, iters
}

func (t *tableau) isBasic(j int) bool {
	for _, bj := range t.basis {
		if bj == j {
			return true
		}
	}
	return false
}

// pivot eliminates column `col` from all rows except `prow`, scaling
// the pivot row to make the pivot 1, and updates the eliminated rhs.
func (t *tableau) pivot(prow, col int) {
	pv := t.a[prow][col]
	inv := 1 / pv
	rowP := t.a[prow]
	for j := range rowP {
		rowP[j] *= inv
	}
	t.b[prow] *= inv
	for i := 0; i < t.m; i++ {
		if i == prow {
			continue
		}
		f := t.a[i][col]
		if f == 0 {
			continue
		}
		rowI := t.a[i]
		for j := range rowI {
			rowI[j] -= f * rowP[j]
		}
		t.b[i] -= f * t.b[prow]
	}
}

// extract returns the structural variable values.
func (t *tableau) extract() []float64 {
	vals := t.basicValues()
	for i, v := range vals {
		t.x[t.basis[i]] = v
	}
	out := make([]float64, t.p.cols)
	copy(out, t.x[:t.p.cols])
	return out
}
