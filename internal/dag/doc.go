// Package dag implements the directed acyclic precedence graphs used
// by the SUU scheduling algorithms: construction and validation,
// topological orders, reachability, dag width (maximum antichain, via
// Dilworth's theorem and bipartite matching), longest-path depth,
// structural classification (independent / chains / out-forest /
// in-forest / underlying forest), and the chain decompositions of
// Section 4.2 of Lin & Rajaraman (SPAA 2007).
//
// It also owns the closed-set lattice, the state space of the
// scheduling Markov chain on up to 64 jobs (PredMasks, Eligible,
// Lattice), which internal/opt, dyn.ExactMakespan and the compiled
// adaptive engine share.
package dag
