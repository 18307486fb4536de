package lp

import (
	"math"
	"testing"
)

// TestWarmDowngradeReported: a warm basis whose columns are linearly
// dependent cannot be reproduced — the installer must swap in slacks
// (or reset entirely) AND say so, so warm-start assertions upstream
// cannot pass vacuously against what is really a cold solve.
func TestWarmDowngradeReported(t *testing.T) {
	p := NewProblem(2)
	p.SetObj(0, -1)
	p.SetObj(1, -2)
	p.SetBounds(0, 0, 3)
	p.SetBounds(1, 0, 3)
	p.AddRow([]Coef{{0, 1}, {1, 1}}, LE, 4)
	p.AddRow([]Coef{{0, 1}, {1, 1}}, LE, 2)

	// Both structural columns basic: B = [[1,1],[1,1]], singular.
	warm := &Basis{cols: []int{0, 1}, atHi: make([]bool, 4)}
	sol := SolveFrom(p, warm)
	if !sol.WarmDowngraded {
		t.Fatal("singular warm basis installed without reporting the downgrade")
	}
	dn := SolveDense(p)
	if sol.Status != dn.Status || math.Abs(sol.Obj-dn.Obj) > 1e-6 {
		t.Fatalf("downgraded solve wrong: %v obj %v (dense %v obj %v)", sol.Status, sol.Obj, dn.Status, dn.Obj)
	}

	// A faithful warm basis must NOT report a downgrade.
	re := SolveFrom(p, sol.Basis)
	if re.WarmDowngraded {
		t.Fatal("clean warm install reported a downgrade")
	}
}

// bealeCycling is Beale's classic cycling instance: every pivot at the
// origin is degenerate, and textbook Dantzig pricing cycles forever.
func bealeCycling() *Problem {
	p := NewProblem(4)
	p.SetObj(0, -0.75)
	p.SetObj(1, 150)
	p.SetObj(2, -0.02)
	p.SetObj(3, 6)
	for j := 0; j < 4; j++ {
		p.SetBounds(j, 0, math.Inf(1))
	}
	p.AddRow([]Coef{{0, 0.25}, {1, -60}, {2, -0.04}, {3, 9}}, LE, 0)
	p.AddRow([]Coef{{0, 0.5}, {1, -90}, {2, -0.02}, {3, 3}}, LE, 0)
	p.AddRow([]Coef{{2, 1}}, LE, 1)
	return p
}

// TestDegeneracyBlandGuard forces the anti-cycling path: with the
// stall threshold dropped to zero every degenerate pivot runs under
// Bland's rule, and the solve must still terminate at the optimum
// (objective −1/20, pinned against the dense oracle).
func TestDegeneracyBlandGuard(t *testing.T) {
	old := degenStallBase
	degenStallBase = 0
	defer func() { degenStallBase = old }()

	p := bealeCycling()
	sp := Solve(p)
	if sp.Status != Optimal {
		t.Fatalf("Bland-guarded solve: %v", sp.Status)
	}
	dn := SolveDense(p)
	if dn.Status != Optimal || math.Abs(sp.Obj-dn.Obj) > 1e-9 {
		t.Fatalf("obj %v vs dense %v", sp.Obj, dn.Obj)
	}
	if math.Abs(sp.Obj-(-0.05)) > 1e-9 {
		t.Fatalf("Beale optimum: got %v, want -0.05", sp.Obj)
	}
}

// TestDegenerateCyclingRegression solves the same instance under the
// default stall threshold — devex plus the guard must terminate within
// the normal iteration budget.
func TestDegenerateCyclingRegression(t *testing.T) {
	p := bealeCycling()
	sp := Solve(p)
	if sp.Status != Optimal || math.Abs(sp.Obj-(-0.05)) > 1e-9 {
		t.Fatalf("cycling instance: %v obj %v", sp.Status, sp.Obj)
	}
}

// TestSparseRescueChargesBudget: the mid-solve numeric fallback must
// charge the pivots the failed attempt already spent against the
// caller's iteration budget — a bounded request is never silently
// given a fresh allowance — and must mark the Solution.
func TestSparseRescueChargesBudget(t *testing.T) {
	p := NewProblem(2)
	p.SetObj(0, -1)
	p.SetBounds(0, 0, 1)
	p.SetBounds(1, 0, 1)
	p.AddRow([]Coef{{0, 1}, {1, 1}}, LE, 1)

	// Per-phase budget fully spent before the failure: the rescue may
	// not run at all — IterLimit, not a free re-solve.
	sol := sparseRescue(p, 10, 10, Solution{Iters: 10})
	if sol.Status != IterLimit || !sol.NumericFallback || sol.Iters != 10 {
		t.Fatalf("exhausted rescue: %+v", sol)
	}
	sol = sparseRescue(p, 10, 12, Solution{Iters: 12})
	if sol.Status != IterLimit || sol.Iters != 12 {
		t.Fatalf("over-spent rescue: %+v", sol)
	}

	// The budget is per phase (SolveWithLimit's contract): two phases
	// may spend 7 each against maxIters=10 without exceeding it, and
	// the rescue still runs on the 3 per phase that remain.
	sol = sparseRescue(p, 10, 7, Solution{Iters: 14})
	if sol.Status != Optimal || !sol.NumericFallback {
		t.Fatalf("per-phase rescue: %+v", sol)
	}
	if sol.Iters < 14 {
		t.Fatalf("spent pivots not charged: iters %d", sol.Iters)
	}

	// Remaining budget: the cold re-solve finishes, total iterations
	// include the pivots already spent, and the fallback is visible on
	// the solution.
	sol = sparseRescue(p, 1000, 7, Solution{Iters: 7})
	if sol.Status != Optimal || !sol.NumericFallback {
		t.Fatalf("rescue with budget: %+v", sol)
	}
	if sol.Iters < 7 {
		t.Fatalf("spent pivots not charged: iters %d", sol.Iters)
	}
	if sol.WarmDowngraded {
		t.Fatal("rescue invented a downgrade")
	}
	if got := sparseRescue(p, 1000, 7, Solution{Iters: 7, WarmDowngraded: true}); !got.WarmDowngraded {
		t.Fatal("rescue dropped the downgrade flag")
	}

	// The re-solve fails numerically too: no point is trusted, the
	// result is IterLimit with neither X nor Basis, and the fallback
	// is still reported.
	numericFault = func(int) bool { return true }
	defer func() { numericFault = nil }()
	sol = SolveWithLimit(p, 1000)
	if sol.Status != IterLimit || sol.X != nil || sol.Basis != nil || !sol.NumericFallback {
		t.Fatalf("double numeric failure: %+v", sol)
	}
}

// TestSparseRescueMatchesDense forces a numeric failure after phase 1,
// and separately after phase 2, of every oracle instance: the cold
// re-solve that finishes the problem must agree with the dense oracle
// on status and objective, exactly as an unfaulted solve does.
func TestSparseRescueMatchesDense(t *testing.T) {
	defer func() { numericFault = nil }()
	for _, phase := range []int{1, 2} {
		rescued := 0
		for seed := int64(0); seed < 1000; seed++ {
			p := oracleInstance(seed)
			armed := true
			numericFault = func(ph int) bool {
				if armed && ph == phase {
					armed = false
					return true
				}
				return false
			}
			sp := Solve(p)
			numericFault = nil
			dn := SolveDense(p)
			if sp.Status != dn.Status {
				t.Fatalf("phase %d seed %d: rescued %v vs dense %v", phase, seed, sp.Status, dn.Status)
			}
			if sp.Status == Optimal {
				tol := 1e-6 * math.Max(1, math.Abs(dn.Obj))
				if math.Abs(sp.Obj-dn.Obj) > tol {
					t.Fatalf("phase %d seed %d: rescued obj %v vs dense obj %v", phase, seed, sp.Obj, dn.Obj)
				}
				if !p.Feasible(sp.X, 1e-6) {
					t.Fatalf("phase %d seed %d: rescued solution infeasible", phase, seed)
				}
			}
			if !armed {
				if !sp.NumericFallback {
					t.Fatalf("phase %d seed %d: forced failure not reported", phase, seed)
				}
				rescued++
			}
		}
		if rescued == 0 {
			t.Fatalf("phase %d: no solve reached the rescue", phase)
		}
		t.Logf("phase %d: %d of 1000 solves rescued", phase, rescued)
	}
}

// TestLUFactorRoundTrip pins the factorization in isolation: for
// random BIP-shaped bases captured from solved instances, B·(B⁻¹a)
// must reproduce a for random right-hand sides through ftran, and
// y·B = c must hold after btran.
func TestLUFactorRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		p := bipShaped(seed, 4+int(seed%6), 3, int(seed%9), false)
		sol := Solve(p)
		if sol.Status != Optimal {
			continue
		}
		s := newSpx(p)
		s.install(sol.Basis)
		if s.downgraded {
			t.Fatalf("seed %d: clean basis downgraded on install", seed)
		}
		// FTRAN round trip: B⁻¹·A_{basis[i]} must be exactly e_i.
		for i := 0; i < s.m; i++ {
			touch := s.colScatter(s.basis[i], s.w, s.touch[:0])
			s.fac.ftran(s.w, touch)
			for r := 0; r < s.m; r++ {
				want := 0.0
				if r == i {
					want = 1
				}
				got := s.w[r]
				s.w[r] = 0
				if math.Abs(got-want) > 1e-7 {
					t.Fatalf("seed %d: ftran(B col %d) row %d = %v, want %v", seed, i, r, got, want)
				}
			}
			s.touch = touch[:0]
		}
	}
}

// TestWarmChainBoundedFill guards the warm-start ratchet: a long
// chain of re-solves, each adopting the previous snapshot, must keep
// refactorizing on the shared update schedule — the factor's size
// stays bounded and results stay pinned to the oracle, instead of
// Forrest–Tomlin updates and fill accumulating across generations.
func TestWarmChainBoundedFill(t *testing.T) {
	p := bipShaped(3, 10, 5, 12, false)
	sol := Solve(p)
	if sol.Status != Optimal {
		t.Fatalf("root: %v", sol.Status)
	}
	basis := sol.Basis
	for gen := 0; gen < 300; gen++ {
		q := p.Clone()
		q.SetObj(gen%q.Cols(), float64(1+gen%7)) // nudge the objective
		re := SolveFrom(q, basis)
		if re.Status != Optimal {
			t.Fatalf("gen %d: %v", gen, re.Status)
		}
		if re.Basis == nil || re.Basis.fac == nil {
			continue
		}
		cap := 4*len(p.rows) + 2*p.nnz + 256 + 4*refactorEvery
		if got := re.Basis.fac.lu.nnz(); got > cap {
			t.Fatalf("gen %d: factor ratcheted to %d nnz (cap %d)", gen, got, cap)
		}
		basis = re.Basis
	}
	dn := SolveDense(p)
	re := SolveFrom(p, basis)
	if re.Status != dn.Status || math.Abs(re.Obj-dn.Obj) > 1e-6*math.Max(1, math.Abs(dn.Obj)) {
		t.Fatalf("chain end diverged: %v obj %v vs dense %v", re.Status, re.Obj, dn.Obj)
	}
}
