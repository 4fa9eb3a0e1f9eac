// Package lp implements linear-programming solvers for problems in
// the form
//
//	minimize    c·x
//	subject to  a_k·x (≤ | = | ≥) b_k   for each constraint k
//	            l_j ≤ x_j ≤ u_j         for each variable j
//
// sized for the LPs that arise in the SUU algorithms ((LP1) and (LP2)
// of Lin & Rajaraman, SPAA 2007): a few hundred to a few thousand
// variables and constraints whose matrix is overwhelmingly sparse —
// every row touches only the (machine, job) pairs with positive
// success probability.
//
// Two solvers share the Problem representation:
//
//   - Solve runs a revised simplex over sparse (CSC) columns with the
//     basis inverse kept in product form (an eta file, refactorized
//     periodically) and variable bounds handled natively in the ratio
//     test. Cost per pivot is O(nnz + eta file) instead of the dense
//     tableau's O(rows·cols). SolveFrom accepts a starting Basis for
//     warm starts and crash bases.
//   - DenseSolve runs the original dense two-phase tableau simplex.
//     It is kept as the cross-check oracle: the fuzz suite pins both
//     solvers to the same feasibility status and objective.
//
// Both use Dantzig pricing with an automatic switch to Bland's rule
// when the objective stalls, which guarantees termination. The
// package is deliberately stdlib-only.
//
// The revised simplex keeps its work arrays in workspaces pooled per
// solve: each solve takes one from a sync.Pool, reslices and clears
// it for its problem, and returns it once the solution is copied
// out, so concurrent solves never share one and a run of small solves
// allocates little beyond its solutions. Nothing returned aliases a
// workspace — Solution.X and Solution.Basis are fresh — and the x a
// SolveLazy separation callback receives is valid only during the
// call.
package lp
