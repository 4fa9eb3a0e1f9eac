// Package opt computes exact expected makespans for SUU instances: the
// exact value of a given regimen, and the optimal regimen itself via
// dynamic programming over the lattice of unfinished-job states — the
// approach Malewicz (SPAA 2005) showed to be polynomial for constant
// width and machine count, and which this reproduction uses as ground
// truth (T_OPT) in the experiments.
//
// States are bitmasks of unfinished jobs. Only "closed" states (where
// every successor of an unfinished job is unfinished) are reachable.
// Transitions remove a subset of the eligible jobs, so values are
// computed in increasing order of popcount, resolving the self-loop in
// closed form: E[S] = (1 + Σ_{∅≠T⊆E} P(T)·E[S\T]) / (1 − P(∅)).
//
// Two solvers implement that recurrence. OptimalRegimen runs the
// layered parallel value iteration of valueiter.go (down-set state
// generation, trialed-subset transition sums, terminal closed forms)
// and reaches n≈20 on structured instances. It searches each state's
// assignments by branch and bound on Dinkelbach's gain: with incumbent
// value x, an assignment beats x iff Σ_{T≠∅} P(T)·(x − E[S\T]) > 1, and
// each machine's share of that sum is bounded from the successor
// values, so only assignments that can win are valued. Its values and
// regimens are bit-identical to valuing all k^m assignments of every
// state, greedy first, then in lexicographic order.
// OptimalRegimenExhaustive is the original small-instance DP — a 2^n
// closed-state scan with full 2^eligible subset sums — retained as the
// parity oracle the fuzz tests compare the value iteration against.
package opt
