// Package lp implements a bounded-variable primal simplex solver for
// linear programs. It is the linear-optimization substrate beneath the
// generic BIP solver (package bip) and the Lagrangian engine (package
// lagrange) — together they replace the off-the-shelf CPLEX solver of
// the paper's evaluation.
//
// Solve/SolveFrom/SolveWithLimit run a revised simplex over the
// problem's sparse column-major store with an LU-factorized basis —
// Markowitz-ordered sparse LU, Forrest–Tomlin updates, devex pricing
// (see sparse.go and lu.go): per-iteration work scales with the
// factor's fill, not with m×n or pivot depth, which is the difference
// that matters for the constraint-rich BIP matrices index tuning
// produces (±1 coefficients, a handful of nonzeros per row). A solve
// whose factorization degrades numerically is finished by one cold
// re-solve on a fresh LU (Solution.NumericFallback).
//
// The original dense two-phase tableau simplex lives in this package's
// test code as a reference oracle: property tests pin the sparse
// path's status and objective against it on randomized BIP-shaped
// instances.
package lp

import (
	"fmt"
	"math"
	"time"
)

// Sense is the comparison sense of a linear constraint.
type Sense int

const (
	// LE is Σ aᵢxᵢ ≤ b.
	LE Sense = iota
	// GE is Σ aᵢxᵢ ≥ b.
	GE
	// EQ is Σ aᵢxᵢ = b.
	EQ
)

// String returns the operator symbol.
func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	default:
		return "?"
	}
}

// Coef is one nonzero coefficient of a constraint row.
type Coef struct {
	Col int
	Val float64
}

type row struct {
	coefs []Coef
	sense Sense
	rhs   float64
}

// matrixStamp is an identity token shared by a Problem and its Clones.
// A Basis's cached factorization (see sparse.go) is only adoptable
// when the constraint matrix is the one it was factored against; the
// stamp makes that check O(1) without fingerprinting coefficients.
type matrixStamp struct{ _ byte }

// Problem is a linear program: minimize Obj·x subject to rows and
// variable bounds. The constraint matrix is stored twice: row-major
// (the evaluators' and the pivot-row scatter's natural layout) and as
// a CSC column store (per-column row-index/value slices, the revised
// simplex's natural layout). AddRow feeds both, so model builders emit
// sparse coefficients straight into CSC with no dense intermediate.
type Problem struct {
	cols int
	obj  []float64
	lo   []float64
	hi   []float64
	rows []row

	// CSC store: colRow[j]/colVal[j] hold the row indices (ascending,
	// AddRow appends monotonically) and values of structural column j.
	colRow [][]int32
	colVal [][]float64
	nnz    int
	mid    *matrixStamp
}

// NewProblem returns a problem with the given number of structural
// variables, all bounded to [0, +∞) with zero objective.
func NewProblem(cols int) *Problem {
	p := &Problem{
		cols:   cols,
		obj:    make([]float64, cols),
		lo:     make([]float64, cols),
		hi:     make([]float64, cols),
		colRow: make([][]int32, cols),
		colVal: make([][]float64, cols),
		mid:    &matrixStamp{},
	}
	for j := range p.hi {
		p.hi[j] = math.Inf(1)
	}
	return p
}

// Cols returns the number of structural variables.
func (p *Problem) Cols() int { return p.cols }

// Rows returns the number of constraints.
func (p *Problem) Rows() int { return len(p.rows) }

// SetObj sets the objective coefficient of variable j.
func (p *Problem) SetObj(j int, c float64) { p.obj[j] = c }

// SetBounds sets the bounds of variable j. Use math.Inf for open ends.
func (p *Problem) SetBounds(j int, lo, hi float64) {
	p.lo[j] = lo
	p.hi[j] = hi
}

// AddRow appends the constraint Σ coefs ⋈ rhs and returns its index.
// Coefficients with duplicate columns are summed. Each coefficient is
// appended to its column's CSC slice as well, keeping the column store
// in sync with no transposition pass.
func (p *Problem) AddRow(coefs []Coef, sense Sense, rhs float64) int {
	i := int32(len(p.rows))
	cp := make([]Coef, 0, len(coefs))
	seen := make(map[int]int, len(coefs))
	for _, c := range coefs {
		if c.Col < 0 || c.Col >= p.cols {
			panic(fmt.Sprintf("lp: column %d out of range", c.Col))
		}
		if k, dup := seen[c.Col]; dup {
			cp[k].Val += c.Val
			// The duplicate was already appended to the column store;
			// update it in place (it is this row's tail entry).
			tail := len(p.colVal[c.Col]) - 1
			p.colVal[c.Col][tail] += c.Val
			continue
		}
		seen[c.Col] = len(cp)
		cp = append(cp, c)
		p.colRow[c.Col] = append(p.colRow[c.Col], i)
		p.colVal[c.Col] = append(p.colVal[c.Col], c.Val)
		p.nnz++
	}
	p.rows = append(p.rows, row{coefs: cp, sense: sense, rhs: rhs})
	// The matrix changed: refresh the stamp so factorizations captured
	// against the old shape (or against a Clone that has since
	// diverged) are no longer adoptable.
	p.mid = &matrixStamp{}
	return len(p.rows) - 1
}

// Status reports the outcome of a solve.
type Status int

const (
	// Optimal means an optimal basic solution was found.
	Optimal Status = iota
	// Infeasible means no point satisfies the constraints.
	Infeasible
	// Unbounded means the objective decreases without bound.
	Unbounded
	// IterLimit means the iteration budget was exhausted.
	IterLimit
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	default:
		return "unknown"
	}
}

// Solution is the result of solving a problem.
type Solution struct {
	Status Status
	// X holds the structural variable values: set when Status is
	// Optimal, and on IterLimit only when phase 2 ran out of pivots.
	X []float64
	// Obj is the objective value of X.
	Obj float64
	// Iters is the number of simplex pivots performed.
	Iters int
	// Basis snapshots the final simplex basis; feed it to SolveFrom on
	// a structurally identical problem (same rows and columns, bounds
	// and objective free to differ) to warm-start the next solve.
	Basis *Basis
	// NumericFallback reports that the solve hit an unrecoverable
	// numerical failure mid-solve and was finished by one cold
	// re-solve on a fresh factorization, charged against the iteration
	// budget the failed attempt had already partly spent. If the
	// re-solve fails too, Status is IterLimit with no X or Basis.
	// Callers with bounded requests should count these: a flaky basis
	// shows up here, not as silently doubled work.
	NumericFallback bool
	// WarmDowngraded reports that a caller-supplied warm basis was
	// numerically defeated during installation and the solve restarted
	// from the all-slack (cold) basis. Warm-start assertions must check
	// this: a "warm" solve with this flag set measured a cold one.
	WarmDowngraded bool
	// Phase1Dur / Phase2Dur are the wall time spent in each simplex
	// phase, and Refactors counts mid-solve basis refactorizations with
	// FactorDur their wall time (spent *inside* the phases, not in
	// addition to them). A numeric re-solve charges its time to the
	// same fields, so the totals always describe the whole solve.
	// These feed the per-request span breakdown (queue-wait /
	// lp.phase1 / … ) the daemon's tracing exposes.
	Phase1Dur time.Duration
	Phase2Dur time.Duration
	FactorDur time.Duration
	Refactors int
}

// Basis is a reusable simplex starting point: the basic column of each
// row plus the bound each nonbasic column rests at. Branch-and-bound
// child nodes differ from their parent by one variable bound, and the
// Lagrangian z subproblem changes only its objective between
// iterations, so re-solves that start from the parent basis pivot from
// a near-optimal point instead of running Phase 1 from scratch.
//
// A basis captured by the sparse path additionally carries a snapshot
// of the basis factorization (the sparse LU factors and their pivot
// assignment). Because the basis matrix depends only on which columns
// are basic — never on bounds or the objective — a re-solve on the
// same constraint matrix (a branch-and-bound child after a bound
// flip, the z subproblem after an objective change) adopts the
// factorization outright and installs the warm start in O(nnz)
// instead of refactoring the basis from its columns.
type Basis struct {
	cols []int  // basic column per row (structural/slack; -1 = row's own slack)
	atHi []bool // nonbasic-at-upper flag per structural/slack column
	fac  *facSnapshot
}

const (
	eps      = 1e-9
	pivotEps = 1e-7
)

// Solve optimizes the problem with the bounded-variable two-phase
// revised simplex method over the sparse column store.
func Solve(p *Problem) Solution {
	return SolveFrom(p, nil)
}

// SolveFrom is Solve starting from a warm basis (nil = cold start).
func SolveFrom(p *Problem, warm *Basis) Solution {
	return solveSparse(p, defaultIterBudget(p), warm)
}

// SolveWithLimit is Solve with an explicit pivot budget, applied to
// each simplex phase separately.
func SolveWithLimit(p *Problem, maxIters int) Solution {
	return solveSparse(p, maxIters, nil)
}

func defaultIterBudget(p *Problem) int {
	return 20000 + 50*(p.cols+len(p.rows))
}
