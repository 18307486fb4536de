package lp

// Revised simplex over the problem's CSC column store.
//
// Where the dense tableau maintains the full eliminated matrix B⁻¹A
// and pays O(m·(n+m)) per pivot, this implementation keeps only a
// sparse LU factorization of the basis (see lu.go): Markowitz-ordered
// pivoting with a relative stability threshold, permuted-triangular
// FTRAN/BTRAN, and Forrest–Tomlin updates between refactorizations, so
// the cost of one transform stays proportional to the factor's fill
// instead of growing with pivot depth the way a product-form eta file
// does. One iteration costs
//
//	pricing  (devex over maintained d)   O(n)
//	FTRAN    (w = B⁻¹·A_enter)           O(factor nnz touched)
//	BTRAN    (ρ = e_r·B⁻¹, pivot row)    O(factor nnz)
//	update   (x_B, d, weights, FT)       O(nnz(w) + nnz(row r))
//
// Pricing is devex reference-framework pricing: reduced costs are
// maintained by the dual update d ← d − θ_d·α after every pivot
// (recomputed exactly at each refactorization and before optimality is
// declared), and candidates are ranked by d²/w with the reference
// weights updated from the same pivot row α. On a degeneracy stall the
// pricing falls back to Bland's rule until a nondegenerate pivot is
// made, which guards against cycling.
//
// Warm starts: a Basis captured here snapshots the LU factorization. A
// re-solve over the same constraint matrix (same matrixStamp, same
// dimensions, same basic columns — bounds and objective free to
// differ) adopts the snapshot and skips installation work entirely;
// otherwise the basis is refactored from its columns, still never
// touching a dense m×n tableau.

import (
	"math"
	"time"
)

// facSnapshot is the reusable factorization a captured Basis carries:
// the LU factors and the row→column assignment they realize, keyed by
// the matrix stamp they were factored against.
type facSnapshot struct {
	mid  *matrixStamp
	m, n int
	cols []int
	lu   *luFac
}

const (
	// refactorEvery bounds the Forrest–Tomlin update count between
	// factorization rebuilds. Unlike a product-form eta file — whose
	// transform cost forces frequent rebuilds — FT updates keep the
	// factor compact, so the interval is set by numerics, not speed.
	refactorEvery = 192
	// etaDropTol discards negligible factor entries (fill-in control).
	etaDropTol = 1e-11
	// devexReset rebuilds the devex reference framework (all weights
	// back to 1) once a weight estimate outgrows it.
	devexReset = 1e7
)

// degenStallBase is the flat part of the degeneracy-stall threshold.
// A variable rather than a constant so the cycling regression test can
// drop it to zero and drive every pivot through the Bland guard.
var degenStallBase = 100

// degenStall is the consecutive-degenerate-pivot count after which
// pricing falls back to Bland's rule (anti-cycling guard).
func degenStall(m int) int { return degenStallBase + 2*m }

// numericFault, when set, replaces the status of a finished simplex
// phase (1 or 2) with statusNumeric whenever it returns true. Nil in
// production; the rescue tests set it to reach the numeric-failure
// path on instances whose factorizations never actually degrade.
var numericFault func(phase int) bool

// statusNumeric is an internal sentinel: a mid-solve refactorization
// could not reproduce a feasible basis (a dependent column was
// dropped, or the exact basic-value recompute exposed violations).
// solveSparse responds with one cold re-solve on a fresh factorization
// — charged against the remaining iteration budget — rather than ever
// returning Optimal on an infeasible point.
const statusNumeric Status = -1

// spx is the revised-simplex working state.
type spx struct {
	p    *Problem
	m    int // rows
	n    int // structural + slack columns
	nArt int

	lo, hi []float64 // per column, artificials included
	x      []float64 // resting value per nonbasic column
	atHi   []bool
	basis  []int  // basic column per row
	inB    []bool // per column: currently basic?
	xB     []float64
	b      []float64

	fac     *luFac
	fw      facWork
	baseNNZ int // factor size right after the last refactorization
	// Artificial k's column is artSign[k]·A_{artCol[k]} — the signed
	// alias of the basic column it displaced, which is the original-
	// coordinate form of the dense oracle's eliminated-frame e_i (see
	// phase1). artCol never references another artificial.
	artCol  []int
	artSign []float64

	// Pricing state: maintained reduced costs, devex reference
	// weights, and the degeneracy-stall tracker behind the Bland
	// fallback.
	d      []float64
	dw     []float64
	cand   []int32 // columns with attractive maintained d (superset)
	inCand []bool
	degen  int
	bland  bool

	// downgraded records that a caller-supplied warm basis was
	// numerically defeated during installation and the solve restarted
	// from the all-slack basis instead (Solution.WarmDowngraded).
	downgraded bool

	// refactors / factorDur count mid-solve refactorizations and their
	// wall time (Solution.Refactors / FactorDur — the "refactorizations"
	// span of the daemon's request traces).
	refactors int
	factorDur time.Duration

	// scratch buffers, reused across iterations.
	w      []float64 // FTRAN scratch
	touch  []int32
	w2     []float64 // spike scratch (Forrest–Tomlin)
	touch2 []int32
	rho    []float64 // BTRAN of the pivot row's unit vector
	alpha  []float64 // pivot row over the columns
	atouch []int32
	y      []float64
	obj    []float64
}

func solveSparse(p *Problem, maxIters int, warm *Basis) Solution {
	sol, spentMax := solveOnce(p, maxIters, warm)
	if sol.Status != statusNumeric {
		return sol
	}
	return sparseRescue(p, maxIters, spentMax, sol)
}

// solveOnce runs both simplex phases on a fresh working state. On a
// numeric failure it returns Status statusNumeric with no X or Basis;
// spentMax is the most pivots any one phase spent.
func solveOnce(p *Problem, maxIters int, warm *Basis) (sol Solution, spentMax int) {
	s := newSpx(p)
	s.install(warm)
	t1 := time.Now()
	st, iters1 := s.phase1(maxIters)
	if numericFault != nil && numericFault(1) {
		st = statusNumeric
	}
	sol = Solution{Status: st, Iters: iters1, WarmDowngraded: s.downgraded, Phase1Dur: time.Since(t1)}
	spentMax = iters1
	if st == Optimal {
		t2 := time.Now()
		var iters2 int
		st, iters2 = s.phase2(maxIters)
		if numericFault != nil && numericFault(2) {
			st = statusNumeric
		}
		sol.Status, sol.Iters, sol.Phase2Dur = st, iters1+iters2, time.Since(t2)
		if st != statusNumeric {
			sol.X = s.extract()
			for j := 0; j < p.cols; j++ {
				sol.Obj += p.obj[j] * sol.X[j]
			}
			sol.Basis = s.captureBasis()
		}
		spentMax = max(iters1, iters2)
	}
	sol.FactorDur, sol.Refactors = s.factorDur, s.refactors
	return sol, spentMax
}

// sparseRescue finishes a numerically failed solve with one cold
// re-solve on a fresh factorization (warm basis dropped: it is the
// likeliest source of the failure). The pivots the failed attempt
// already spent are charged against the caller's budget — a bounded
// request is never silently given a fresh allowance — and the
// fallback is reported on the Solution so callers can count it. The
// budget contract is per-phase (see SolveWithLimit), so the re-solve's
// per-phase allowance is maxIters minus the most any failed phase
// spent (spentMax). Iters reports total pivots: everything the failed
// attempt burned plus the re-solve. If the re-solve fails numerically
// too, the result is IterLimit with no X and no Basis — callers treat
// that as "stop; the proven bound stands".
func sparseRescue(p *Problem, maxIters, spentMax int, failed Solution) Solution {
	sol := Solution{Status: IterLimit}
	if remaining := maxIters - spentMax; remaining > 0 {
		sol, _ = solveOnce(p, remaining, nil)
		if sol.Status == statusNumeric {
			sol.Status = IterLimit
		}
	}
	sol.Iters += failed.Iters
	sol.NumericFallback = true
	sol.WarmDowngraded = failed.WarmDowngraded
	// The failed attempt's phase time is real solve time: charge it on
	// top of the re-solve so the breakdown sums to the wall.
	sol.Phase1Dur += failed.Phase1Dur
	sol.Phase2Dur += failed.Phase2Dur
	sol.FactorDur += failed.FactorDur
	sol.Refactors += failed.Refactors
	return sol
}

func newSpx(p *Problem) *spx {
	m := len(p.rows)
	n := p.cols + m
	s := &spx{p: p, m: m, n: n}

	s.lo = make([]float64, n)
	s.hi = make([]float64, n)
	copy(s.lo, p.lo)
	copy(s.hi, p.hi)
	s.b = make([]float64, m)
	for i, r := range p.rows {
		j := p.cols + i
		switch r.sense {
		case LE:
			s.lo[j], s.hi[j] = 0, math.Inf(1)
		case GE:
			s.lo[j], s.hi[j] = math.Inf(-1), 0
		case EQ:
			s.lo[j], s.hi[j] = 0, 0
		}
		s.b[i] = r.rhs
	}

	// Nonbasic structural variables rest at their finite bound nearest
	// zero (the dense oracle's rule); slacks form the initial basis.
	s.x = make([]float64, n)
	s.atHi = make([]bool, n)
	for j := 0; j < p.cols; j++ {
		switch {
		case !math.IsInf(s.lo[j], 0) && (s.lo[j] >= 0 || math.IsInf(s.hi[j], 0)):
			s.x[j] = s.lo[j]
		case !math.IsInf(s.hi[j], 0):
			s.x[j] = s.hi[j]
			s.atHi[j] = true
		default:
			s.x[j] = 0
		}
	}
	s.basis = make([]int, m)
	s.inB = make([]bool, n)
	s.xB = make([]float64, m)
	s.w = make([]float64, m)
	s.w2 = make([]float64, m)
	s.rho = make([]float64, m)
	s.y = make([]float64, m)
	s.obj = make([]float64, n)
	s.d = make([]float64, n)
	s.dw = make([]float64, n)
	s.inCand = make([]bool, n)
	s.alpha = make([]float64, n)
	s.fac = newLU(m)
	s.slackBasis()
	return s
}

// slackBasis resets to B = I: every row's own slack basic, an
// identity factorization.
func (s *spx) slackBasis() {
	f := s.fac
	f.reset()
	for i := 0; i < s.m; i++ {
		f.porder = append(f.porder, int32(i))
		f.pos[i] = int32(i)
		f.udiag[i] = 1
		s.basis[i] = s.p.cols + i
	}
	for j := range s.inB {
		s.inB[j] = false
	}
	for _, j := range s.basis {
		s.inB[j] = true
	}
	s.baseNNZ = s.fac.nnz()
}

// colScatter writes column j into the (zeroed) scratch dst and
// returns the touched row list.
func (s *spx) colScatter(j int, dst []float64, touch []int32) []int32 {
	switch {
	case j < s.p.cols:
		rows, vals := s.p.colRow[j], s.p.colVal[j]
		for k, r := range rows {
			dst[r] = vals[k]
			touch = append(touch, r)
		}
	case j < s.n:
		r := int32(j - s.p.cols)
		dst[r] = 1
		touch = append(touch, r)
	default:
		k := j - s.n
		sign := s.artSign[k]
		if ref := s.artCol[k]; ref < s.p.cols {
			rows, vals := s.p.colRow[ref], s.p.colVal[ref]
			for kk, r := range rows {
				dst[r] = sign * vals[kk]
				touch = append(touch, r)
			}
		} else {
			r := int32(ref - s.p.cols)
			dst[r] = sign
			touch = append(touch, r)
		}
	}
	return touch
}

// colDot returns Σ_i y_i·a_ij without materializing the column.
func (s *spx) colDot(j int, y []float64) float64 {
	switch {
	case j < s.p.cols:
		rows, vals := s.p.colRow[j], s.p.colVal[j]
		var sum float64
		for k, r := range rows {
			sum += vals[k] * y[r]
		}
		return sum
	case j < s.n:
		return y[j-s.p.cols]
	default:
		k := j - s.n
		if ref := s.artCol[k]; ref < s.p.cols {
			rows, vals := s.p.colRow[ref], s.p.colVal[ref]
			var sum float64
			for kk, r := range rows {
				sum += vals[kk] * y[r]
			}
			return s.artSign[k] * sum
		} else {
			return s.artSign[k] * y[ref-s.p.cols]
		}
	}
}

// clearW zeroes the scratch via its touch list.
func (s *spx) clearW(touch []int32) {
	for _, i := range touch {
		s.w[i] = 0
	}
}

// computeXB recomputes the basic values exactly:
// x_B = B⁻¹·(b − Σ_{nonbasic j} A_j·x_j).
func (s *spx) computeXB() {
	v := make([]float64, s.m)
	copy(v, s.b)
	total := s.n + s.nArt
	for j := 0; j < total; j++ {
		if s.inB[j] || s.x[j] == 0 {
			continue
		}
		xj := s.x[j]
		switch {
		case j < s.p.cols:
			rows, vals := s.p.colRow[j], s.p.colVal[j]
			for k, r := range rows {
				v[r] -= vals[k] * xj
			}
		case j < s.n:
			v[j-s.p.cols] -= xj
		default:
			k := j - s.n
			sign := s.artSign[k]
			if ref := s.artCol[k]; ref < s.p.cols {
				rows, vals := s.p.colRow[ref], s.p.colVal[ref]
				for kk, r := range rows {
					v[r] -= sign * vals[kk] * xj
				}
			} else {
				v[ref-s.p.cols] -= sign * xj
			}
		}
	}
	s.fac.ftranDense(v)
	copy(s.xB, v)
}

// install establishes the starting point. With no warm basis the slack
// basis stands (B = I, identity factorization). With one, nonbasic
// columns move to their recorded bounds, and the recorded basis is
// either adopted wholesale — same matrix stamp and basic columns mean
// the factorization snapshot applies verbatim, the O(nnz) path — or
// refactored from its columns.
func (s *spx) install(warm *Basis) {
	if warm == nil || len(warm.cols) != s.m || len(warm.atHi) != s.n {
		s.crashRest()
		s.computeXB()
		return
	}
	copy(s.atHi, warm.atHi)
	for j := 0; j < s.n; j++ {
		switch {
		case s.atHi[j] && !math.IsInf(s.hi[j], 0):
			s.x[j] = s.hi[j]
		case !math.IsInf(s.lo[j], 0):
			s.x[j] = s.lo[j]
			s.atHi[j] = false
		case !math.IsInf(s.hi[j], 0):
			s.x[j] = s.hi[j]
			s.atHi[j] = true
		default:
			s.x[j] = 0
			s.atHi[j] = false
		}
	}

	// Resolve the target columns: -1 and duplicates fall back to the
	// row's own slack, mirroring the dense installer.
	target := make([]int, s.m)
	used := make([]bool, s.n)
	for i, col := range warm.cols {
		if col < 0 || col >= s.n || used[col] {
			col = s.p.cols + i
			if used[col] {
				col = -1 // resolved by the refactoring fallback below
			}
		}
		target[i] = col
		if col >= 0 {
			used[col] = true
		}
	}

	adopted := false
	if f := warm.fac; f != nil && f.mid == s.p.mid && f.m == s.m && f.n == s.n && equalInts(f.cols, target) {
		// The copy carries the snapshot's accumulated update count, so
		// a chain of short warm solves still refactorizes (and purges
		// accumulated fill and drift) on the shared schedule.
		s.fac = f.lu.copyLU()
		copy(s.basis, f.cols)
		s.baseNNZ = s.fac.nnz()
		adopted = true
	}
	if !adopted {
		if s.reinstall(target) {
			// Numerically defeated (wholly or in part): the warm basis
			// was not reproduced — dependent columns were swapped for
			// slacks, or the whole basis reset to all-slack. Reported
			// so warm-start assertions cannot pass vacuously against
			// what is really a (partly) cold solve.
			s.downgraded = true
		}
	}
	for j := range s.inB {
		s.inB[j] = false
	}
	for _, j := range s.basis {
		s.inB[j] = true
	}
	s.computeXB()
}

// boundDist is the distance of v from the interval [lo, hi].
func boundDist(v, lo, hi float64) float64 {
	if v < lo {
		return lo - v
	}
	if v > hi {
		return v - hi
	}
	return 0
}

// crashRest greedily flips nonbasic rest positions before a cold
// solve so that fewer rows start outside their slack bounds — a
// bound-flip crash. The slack basis stays (B = I, trivially
// factored); only where the binaries *rest* moves. Each pass walks
// the rows in order, flipping finite-boxed structural columns across
// when that strictly shrinks the row's violation; chains (a flip
// satisfying one row re-violating an earlier one) settle over the
// fixed pass budget, and whatever violation remains is phase 1's job.
// On the BIP shapes above this package (Σ choice = 1 assignment rows
// over binaries) this removes most phase-1 artificials outright.
func (s *spx) crashRest() {
	for pass := 0; pass < 3; pass++ {
		changed := false
		for i := range s.p.rows {
			r := &s.p.rows[i]
			slo, shi := s.lo[s.p.cols+i], s.hi[s.p.cols+i]
			act := 0.0
			for _, c := range r.coefs {
				act += c.Val * s.x[c.Col]
			}
			sv := r.rhs - act // the slack's starting basic value
			viol := boundDist(sv, slo, shi)
			if viol <= eps {
				continue
			}
			for _, c := range r.coefs {
				j := c.Col
				if s.lo[j] == s.hi[j] || math.IsInf(s.lo[j], 0) || math.IsInf(s.hi[j], 0) {
					continue
				}
				delta := c.Val * (s.hi[j] - s.lo[j]) // act change of an up-flip
				if s.atHi[j] {
					delta = -delta
				}
				if nv := boundDist(sv-delta, slo, shi); nv < viol-eps {
					s.atHi[j] = !s.atHi[j]
					if s.atHi[j] {
						s.x[j] = s.hi[j]
					} else {
						s.x[j] = s.lo[j]
					}
					sv -= delta
					viol = nv
					changed = true
					if viol <= eps {
						break
					}
				}
			}
		}
		if !changed {
			break
		}
	}
}

// reinstall refactors the target basis from its columns. Columns that
// have gone numerically dependent are replaced by unused slacks
// (always completable in exact arithmetic — the slacks alone span);
// if even the slack-completed set cannot be factored the all-slack
// basis stands. The return reports any downgrade — the target basis
// was not reproduced faithfully, whether one column was swapped for a
// slack or the whole basis was reset — so a warm install can surface
// it instead of letting warm-start assertions pass vacuously.
func (s *spx) reinstall(target []int) bool {
	total := s.n + s.nArt
	cols := make([]int, 0, s.m)
	used := make([]bool, total)
	for _, j := range target {
		if j >= 0 && j < total && !used[j] {
			used[j] = true
			cols = append(cols, j)
		}
	}
	for i := 0; i < s.m && len(cols) < s.m; i++ {
		if j := s.p.cols + i; !used[j] {
			used[j] = true
			cols = append(cols, j)
		}
	}
	if s.factor(cols) > 0 {
		// Swap the dropped columns for unused slacks and retry once.
		cols = cols[:0]
		for i := range used {
			used[i] = false
		}
		for _, j := range s.basis {
			if j >= 0 {
				used[j] = true
				cols = append(cols, j)
			}
		}
		for i := 0; i < s.m && len(cols) < s.m; i++ {
			if j := s.p.cols + i; !used[j] {
				used[j] = true
				cols = append(cols, j)
			}
		}
		if s.factor(cols) > 0 {
			s.slackBasis()
		}
		s.baseNNZ = s.fac.nnz()
		return true
	}
	s.baseNNZ = s.fac.nnz()
	return false
}

// refactorize rebuilds the factorization of the current basis
// mid-solve. A refactorization of the *current* basis must reproduce
// it; a dropped column or a bound violation in the exact basic-value
// recompute means the factors had degraded — surfaced as
// statusNumeric instead of iterating on an infeasible point.
func (s *spx) refactorize() Status {
	s.refactors++
	defer func(t0 time.Time) { s.factorDur += time.Since(t0) }(time.Now())
	before := append([]int(nil), s.basis...)
	s.reinstall(before)
	for j := range s.inB {
		s.inB[j] = false
	}
	for _, j := range s.basis {
		if j >= 0 {
			s.inB[j] = true
		}
	}
	s.computeXB()
	if !sameBasisSet(before, s.basis) {
		return statusNumeric
	}
	for i := 0; i < s.m; i++ {
		j := s.basis[i]
		if s.xB[i] < s.lo[j]-1e-6 || s.xB[i] > s.hi[j]+1e-6 {
			return statusNumeric
		}
	}
	return Optimal
}

// sameBasisSet reports whether two basis assignments hold the same
// columns (the row association is free to permute across a
// refactorization; only the column set defines the basis matrix).
func sameBasisSet(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	seen := make(map[int]int, len(a))
	for _, j := range a {
		seen[j]++
	}
	for _, j := range b {
		if seen[j] == 0 {
			return false
		}
		seen[j]--
	}
	return true
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// phase1 restores feasibility. A row whose basic value violates its
// bounds has that variable pinned at the bound it violated toward and
// replaced by an artificial, then the sum of artificials is minimized.
//
// The artificial for row i is σ·A_old — the signed alias of the column
// it displaces. This is the original-coordinate form of the dense
// oracle's "+1 in row i of the eliminated tableau" (e_i in the
// eliminated frame is B·e_i = A_old in original coordinates): its
// FTRAN is exactly σ·e_i, so the insertion is a column scaling of U
// and, like the dense version, perfectly row-local — inserting one
// row's artificial never perturbs another row's basic value, which
// keeps the violation snapshot taken above consistent for every row.
func (s *spx) phase1(maxIters int) (Status, int) {
	var artRows []int
	for i := 0; i < s.m; i++ {
		j := s.basis[i]
		if s.xB[i] < s.lo[j]-eps || s.xB[i] > s.hi[j]+eps {
			artRows = append(artRows, i)
		}
	}
	if len(artRows) == 0 {
		return Optimal, 0
	}

	s.nArt = len(artRows)
	s.artCol = make([]int, 0, s.nArt)
	s.artSign = make([]float64, 0, s.nArt)
	s.lo = append(s.lo, make([]float64, s.nArt)...)
	s.hi = append(s.hi, make([]float64, s.nArt)...)
	s.x = append(s.x, make([]float64, s.nArt)...)
	s.atHi = append(s.atHi, make([]bool, s.nArt)...)
	s.inB = append(s.inB, make([]bool, s.nArt)...)
	s.obj = append(s.obj, make([]float64, s.nArt)...)
	s.d = append(s.d, make([]float64, s.nArt)...)
	s.dw = append(s.dw, make([]float64, s.nArt)...)
	s.inCand = append(s.inCand, make([]bool, s.nArt)...)
	s.alpha = append(s.alpha, make([]float64, s.nArt)...)

	for k, i := range artRows {
		old := s.basis[i]
		var pin float64
		var toHi bool
		if s.xB[i] < s.lo[old] {
			pin, toHi = s.lo[old], false
		} else {
			pin, toHi = s.hi[old], true
		}
		if math.IsInf(pin, 0) {
			pin = 0
		}

		// σ makes the artificial's starting value t nonnegative:
		// w = B⁻¹(σ·A_old) = σ·e_i, t = (x_Bi − pin)/σ.
		sigma := 1.0
		if s.xB[i]-pin < 0 {
			sigma = -1
		}
		t := (s.xB[i] - pin) / sigma

		j := s.n + k
		s.artCol = append(s.artCol, old)
		s.artSign = append(s.artSign, sigma)
		s.lo[j], s.hi[j] = 0, math.Inf(1)
		s.obj[j] = 1
		if sigma != 1 {
			// The basis column at pivot row i is now σ times itself;
			// scaling the matching U column keeps B = L·U exact.
			s.fac.scaleCol(int32(i), sigma)
		}

		s.x[old] = pin
		s.atHi[old] = toHi
		s.inB[old] = false
		s.basis[i] = j
		s.inB[j] = true
		s.xB[i] = t
	}

	for j := 0; j < s.n; j++ {
		s.obj[j] = 0
	}
	for k := 0; k < s.nArt; k++ {
		s.obj[s.n+k] = 1
	}
	st, iters := s.iterate(maxIters)
	if st == statusNumeric {
		return statusNumeric, iters
	}
	if st == Unbounded {
		// Minimizing nonnegative artificials cannot be unbounded; treat
		// as numeric failure, like the dense oracle.
		return Infeasible, iters
	}
	if st == IterLimit {
		return IterLimit, iters
	}
	for k := 0; k < s.nArt; k++ {
		j := s.n + k
		v := s.x[j]
		if s.inB[j] {
			for i, bj := range s.basis {
				if bj == j {
					v = s.xB[i]
					break
				}
			}
		}
		if v > 1e-6 {
			return Infeasible, iters
		}
	}
	// Freeze artificials at zero so phase 2 cannot reuse them.
	for k := 0; k < s.nArt; k++ {
		j := s.n + k
		s.lo[j], s.hi[j] = 0, 0
	}
	return Optimal, iters
}

func (s *spx) phase2(maxIters int) (Status, int) {
	for j := 0; j < s.p.cols; j++ {
		s.obj[j] = s.p.obj[j]
	}
	for j := s.p.cols; j < s.n+s.nArt; j++ {
		s.obj[j] = 0
	}
	return s.iterate(maxIters)
}

// refreshD recomputes the reduced costs exactly from the duals
// y = c_B·B⁻¹ — the periodic (and optimality-confirming) correction
// to the per-pivot d ← d − θ_d·α updates.
func (s *spx) refreshD() {
	total := s.n + s.nArt
	for i := 0; i < s.m; i++ {
		s.y[i] = s.obj[s.basis[i]]
	}
	s.fac.btran(s.y)
	s.cand = s.cand[:0]
	for j := 0; j < total; j++ {
		if s.inB[j] {
			s.d[j] = 0
			s.inCand[j] = false
			continue
		}
		d := s.obj[j] - s.colDot(j, s.y)
		s.d[j] = d
		// Fixed columns can never become eligible within a solve (their
		// bounds do not move mid-solve); keep them off the list.
		if (d < -eps || d > eps) && s.lo[j] != s.hi[j] {
			s.cand = append(s.cand, int32(j))
			s.inCand[j] = true
		} else {
			s.inCand[j] = false
		}
	}
}

// candAdd registers a column whose maintained reduced cost turned
// attractive since the last refresh.
func (s *spx) candAdd(j int32) {
	if !s.inCand[j] {
		s.inCand[j] = true
		s.cand = append(s.cand, j)
	}
}

// pivotRowAlpha computes the pivot row of the simplex tableau for the
// leaving row: ρ = e_r·B⁻¹ (sparse BTRAN), then α_j = ρ·A_j scattered
// over the columns via the problem's row-major store. α drives both
// the reduced-cost update and the devex weight update; its support is
// returned in s.atouch and must be consumed (zeroed) by the caller.
func (s *spx) pivotRowAlpha(leave int32) {
	for i := range s.rho {
		s.rho[i] = 0
	}
	s.rho[leave] = 1
	s.fac.btranRow(leave, s.rho)
	s.atouch = s.atouch[:0]
	for i := 0; i < s.m; i++ {
		ri := s.rho[i]
		if ri == 0 {
			continue
		}
		for _, c := range s.p.rows[i].coefs {
			if s.alpha[c.Col] == 0 {
				s.atouch = append(s.atouch, int32(c.Col))
			}
			s.alpha[c.Col] += ri * c.Val
		}
		j := s.p.cols + i
		if s.alpha[j] == 0 {
			s.atouch = append(s.atouch, int32(j))
		}
		s.alpha[j] += ri
	}
	for k := 0; k < s.nArt; k++ {
		j := s.n + k
		if s.inB[j] || s.lo[j] == s.hi[j] {
			continue
		}
		if v := s.colDot(j, s.rho); v != 0 && s.alpha[j] == 0 {
			s.alpha[j] = v
			s.atouch = append(s.atouch, int32(j))
		}
	}
}

// iterate runs revised-simplex pivots until optimality for the
// current objective: devex pricing over maintained reduced costs, the
// bounded-variable ratio test, and a Forrest–Tomlin factor update per
// basis change. Optimality is only declared on exactly recomputed
// reduced costs.
func (s *spx) iterate(maxIters int) (Status, int) {
	total := s.n + s.nArt
	s.refreshD()
	fresh := true
	s.degen = 0
	s.bland = false
	for j := range s.dw {
		s.dw[j] = 1
	}
	iters := 0
	for ; iters < maxIters; iters++ {
		// Rebuild on the update-count schedule, on fill doubling, or —
		// for factors inherited through warm-start chains — past an
		// absolute fill cap (only when updates occurred: a fresh factor
		// over the cap must not rebuild itself in a loop).
		if s.fac.updates >= refactorEvery ||
			(s.fac.updates > 0 && (s.fac.nnz() > 2*s.baseNNZ+4*s.m+64 || s.fac.nnz() > 4*s.m+2*s.p.nnz+256)) {
			if st := s.refactorize(); st != Optimal {
				return st, iters
			}
			s.refreshD()
			fresh = true
		}

		// Anti-cycling guard: after a degeneracy stall, recompute the
		// reduced costs once and price by Bland's rule until a
		// nondegenerate pivot is made.
		if s.degen > degenStall(s.m) && !s.bland {
			s.bland = true
			s.refreshD()
			fresh = true
		}
		useBland := s.bland || iters > maxIters/2

		// Pricing over the maintained reduced costs. The candidate list
		// holds every column whose d turned attractive since the last
		// exact refresh; entries gone stale are compacted away here, so
		// a pricing pass costs O(candidates), not O(n). Bland's rule
		// needs the minimum *index*, so it scans the full range.
		enter := -1
		var enterDir float64
		bestScore := 0.0
		if useBland {
			for j := 0; j < total; j++ {
				d := s.d[j]
				var dir float64
				if d < -eps {
					if s.atHi[j] || s.inB[j] || s.lo[j] == s.hi[j] {
						continue
					}
					dir = 1
				} else if d > eps {
					if s.inB[j] || s.lo[j] == s.hi[j] {
						continue
					}
					if !s.atHi[j] && !(math.IsInf(s.lo[j], 0) && math.IsInf(s.hi[j], 0)) {
						continue
					}
					dir = -1
				} else {
					continue
				}
				enter, enterDir = j, dir
				break
			}
		} else {
			keep := s.cand[:0]
			for _, j := range s.cand {
				// Only currently eligible columns survive compaction: a
				// nonbasic column's bound side cannot change while it
				// is ineligible, and any d movement re-adds it through
				// candAdd — so dropped entries cannot be missed later.
				d := s.d[j]
				if (d >= -eps && d <= eps) || s.inB[j] {
					s.inCand[j] = false
					continue
				}
				var dir float64
				if d < -eps {
					if s.atHi[j] {
						s.inCand[j] = false
						continue
					}
					dir = 1
				} else {
					if !s.atHi[j] && !(math.IsInf(s.lo[j], 0) && math.IsInf(s.hi[j], 0)) {
						s.inCand[j] = false
						continue
					}
					dir = -1
				}
				keep = append(keep, j)
				if score := d * d / s.dw[j]; score > bestScore {
					bestScore, enter, enterDir = score, int(j), dir
				}
			}
			s.cand = keep
		}
		if enter == -1 {
			if !fresh {
				// The maintained costs say optimal; confirm against
				// exactly recomputed ones before declaring it.
				s.refreshD()
				fresh = true
				iters--
				continue
			}
			return Optimal, iters
		}

		// FTRAN the entering column: the L half lands in w2 — kept as
		// the Forrest–Tomlin spike if this iteration pivots — and the
		// U back-substitution completes on a copy in w.
		touch2 := s.colScatter(enter, s.w2, s.touch2[:0])
		touch2 = s.fac.halfFtran(s.w2, touch2)
		touch := s.touch[:0]
		for _, i := range touch2 {
			if v := s.w2[i]; v != 0 && s.w[i] == 0 {
				s.w[i] = v
				touch = append(touch, i)
			}
		}
		touch = s.fac.utran(s.w, touch)

		// Ratio test (idempotent over possible duplicate touches).
		limit := math.Inf(1)
		if !math.IsInf(s.hi[enter], 0) && !math.IsInf(s.lo[enter], 0) {
			limit = s.hi[enter] - s.lo[enter]
		}
		leave := int32(-1)
		leaveToHi := false
		for _, i := range touch {
			coef := s.w[i] * enterDir
			if math.Abs(coef) < pivotEps {
				continue
			}
			bj := s.basis[i]
			v := s.xB[i]
			if coef > 0 {
				if math.IsInf(s.lo[bj], 0) {
					continue
				}
				if room := (v - s.lo[bj]) / coef; room < limit-eps {
					limit, leave, leaveToHi = room, i, false
				}
			} else {
				if math.IsInf(s.hi[bj], 0) {
					continue
				}
				if room := (v - s.hi[bj]) / coef; room < limit-eps {
					limit, leave, leaveToHi = room, i, true
				}
			}
		}
		if math.IsInf(limit, 1) {
			s.clearW(touch)
			s.touch = touch
			for _, i := range touch2 {
				s.w2[i] = 0
			}
			s.touch2 = touch2
			return Unbounded, iters
		}
		if limit < 0 {
			limit = 0
		}
		if limit > eps {
			s.degen = 0
			s.bland = false
		} else {
			s.degen++
		}

		if leave == -1 {
			// Bound flip: basis unchanged, basic values shift; the
			// reduced costs do not move (same basis, same duals).
			for _, i := range touch {
				v := s.w[i]
				if v == 0 {
					continue
				}
				s.w[i] = 0
				s.xB[i] -= enterDir * limit * v
			}
			s.touch = touch
			for _, i := range touch2 {
				s.w2[i] = 0
			}
			s.touch2 = touch2
			s.atHi[enter] = !s.atHi[enter]
			if s.atHi[enter] {
				s.x[enter] = s.hi[enter]
			} else {
				s.x[enter] = s.lo[enter]
			}
			continue
		}

		// Pivot: entering becomes basic at row `leave`. First the dual
		// side — the pivot row α prices the reduced-cost and devex
		// weight updates against the pre-pivot factorization.
		out := s.basis[leave]
		pr := s.w[leave]
		enterVal := s.x[enter] + enterDir*limit
		thetaD := s.d[enter] / pr
		wq := s.dw[enter]
		s.pivotRowAlpha(leave)
		for _, j := range s.atouch {
			aj := s.alpha[j]
			s.alpha[j] = 0
			if aj == 0 || s.inB[j] || int(j) == enter {
				continue
			}
			nd := s.d[j] - thetaD*aj
			s.d[j] = nd
			if nd < -eps || nd > eps {
				s.candAdd(j)
			}
			if nw := (aj / pr) * (aj / pr) * wq; nw > s.dw[j] {
				s.dw[j] = nw
			}
		}
		s.d[enter] = 0
		s.d[out] = -thetaD
		if thetaD < -eps || thetaD > eps {
			s.candAdd(int32(out))
		}
		if nw := wq / (pr * pr); nw > 1 {
			if nw > devexReset {
				// The reference framework has drifted too far; rebuild
				// it with the current basis as reference.
				for j := range s.dw {
					s.dw[j] = 1
				}
			} else {
				s.dw[out] = nw
			}
		} else {
			s.dw[out] = 1
		}
		fresh = false

		// Primal side: basic values shift along w; the spike in w2 is
		// handed to the factor update below.
		s.w[leave] = 0
		for _, i := range touch {
			v := s.w[i]
			if v == 0 {
				continue
			}
			s.w[i] = 0
			s.xB[i] -= enterDir * limit * v
		}
		s.touch = touch

		s.basis[leave] = enter
		s.inB[enter] = true
		s.inB[out] = false
		s.xB[leave] = enterVal
		s.atHi[out] = leaveToHi
		if leaveToHi {
			s.x[out] = s.hi[out]
		} else {
			s.x[out] = s.lo[out]
		}
		if math.IsInf(s.x[out], 0) {
			s.x[out] = 0
		}

		if !s.fac.ftUpdate(leave, s.w2, touch2) {
			s.touch2 = touch2
			// The update went numerically degenerate; rebuild the
			// factors for the (already updated) basis from scratch.
			if st := s.refactorize(); st != Optimal {
				return st, iters + 1
			}
			s.refreshD()
			fresh = true
			continue
		}
		s.touch2 = touch2
	}
	return IterLimit, iters
}

// extract returns the structural variable values.
func (s *spx) extract() []float64 {
	out := make([]float64, s.p.cols)
	copy(out, s.x[:s.p.cols])
	for i, j := range s.basis {
		if j < s.p.cols {
			out[j] = s.xB[i]
		}
	}
	return out
}

// captureBasis snapshots the final basis. Artificial columns (possible
// only after a degenerate phase 1) map to the row's slack and suppress
// the factorization snapshot; at-upper flags of basic columns are
// normalized to false, mirroring the dense oracle.
func (s *spx) captureBasis() *Basis {
	b := &Basis{cols: make([]int, s.m), atHi: make([]bool, s.n)}
	copy(b.atHi, s.atHi[:s.n])
	hasArt := false
	for i, j := range s.basis {
		if j >= s.n {
			b.cols[i] = -1
			hasArt = true
		} else {
			b.cols[i] = j
			b.atHi[j] = false
		}
	}
	if !hasArt {
		// The snapshot takes the live factorization without copying:
		// captureBasis runs once, after the final pivot, and every
		// adopter (install) deep-copies before mutating.
		b.fac = &facSnapshot{
			mid:  s.p.mid,
			m:    s.m,
			n:    s.n,
			cols: append([]int(nil), s.basis...),
			lu:   s.fac,
		}
	}
	return b
}
