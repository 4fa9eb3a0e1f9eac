// Package sched defines the schedule representations of Lin &
// Rajaraman (SPAA 2007) and the transformations between them:
//
//   - Assignment — one step's machine→job map;
//   - Policy — the general (possibly adaptive) schedule abstraction;
//   - Regimen — a stationary policy f_S depending only on the
//     unfinished set (Definition 2.2);
//   - Oblivious — a time-indexed schedule independent of the unfinished
//     set (Definition 2.3), as a finite prefix plus an infinite tail;
//     the prefix is stored as runs of equal steps, so replication and
//     concatenation cost O(runs), and a step iterator reads it step by
//     step without expanding it;
//   - Pseudo — a pseudo-schedule (Definition 4.1): per-chain tracks,
//     each an Oblivious prefix in run form, whose union may assign a
//     machine to several jobs per step;
//   - transformations: random delays, flattening, replication,
//     concatenation (Section 4.1's conversion pipeline), all reading
//     and writing runs: the delay search scores each candidate over
//     every machine's busy intervals (one per stretch of a track's
//     runs that keeps the machine busy), and flattening shifts each
//     track by its delay, walks the segments between consecutive
//     delayed run ends and drops every step no track occupies;
//   - mass accounting (Definition 2.4) and feasibility validation.
package sched
