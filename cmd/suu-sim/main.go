// Command suu-sim reads an SUU instance (JSON, from suu-gen or by
// hand), constructs a schedule with the chosen algorithm, and reports
// an estimated expected makespan with diagnostics.
//
// Usage:
//
//	suu-gen -family chains -jobs 16 | suu-sim -alg auto -reps 500
//
// The -alg values come straight from the solver registry
// (internal/solve) — run `suu-sim -list` for the current catalogue
// with theorems, applicable precedence classes, and guarantees; the
// list cannot drift from the implementation because the flag's
// accepted values and the listing are generated from the same
// registrations. The special value "auto" dispatches to the strongest
// registered construction for the instance's precedence class
// (exactly like the library's suu.Solve).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"suu/internal/core"
	"suu/internal/model"
	"suu/internal/sched"
	"suu/internal/sim"
	"suu/internal/solve"
)

func main() {
	var (
		gantt    = flag.Int("gantt", 0, "print the first N steps of an oblivious schedule as a Gantt chart")
		stats    = flag.Bool("stats", false, "print prefix statistics (utilization, job windows, mass)")
		export   = flag.String("export", "", "write the oblivious schedule JSON to this file")
		alg      = flag.String("alg", "auto", "algorithm: auto|"+strings.Join(solve.IDs(), "|"))
		list     = flag.Bool("list", false, "list registered solvers (id, theorem, classes, guarantee) and exit")
		reps     = flag.Int("reps", 200, "Monte Carlo repetitions")
		maxSteps = flag.Int("max-steps", 1_000_000, "per-run step cap")
		seed     = flag.Int64("seed", 1, "seed for construction and simulation")
		file     = flag.String("f", "-", "instance file (default stdin)")
	)
	flag.Parse()

	if *list {
		fmt.Print("auto: strongest registered construction for the instance's class (suu.Solve dispatch)\n\n")
		fmt.Print(solve.Describe())
		fmt.Print("\nDiagnostics: -stats prints prefix statistics for oblivious schedules;\nfor -alg optimal it prints the value iteration's search counters\n(states, layers, assignments enumerated/pruned, closed-form hits).\nIt also reports the estimation engine the simulator selected\n(generic, compiled, compiled-lane, compiled-adaptive, dynamic-step).\n")
		return
	}

	var r io.Reader = os.Stdin
	if *file != "-" {
		f, err := os.Open(*file)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		r = f
	}
	in := &model.Instance{}
	if err := json.NewDecoder(r).Decode(in); err != nil {
		log.Fatalf("decode instance: %v", err)
	}

	par := core.DefaultParams()
	par.Seed = *seed

	var res *solve.Result
	var err error
	if *alg == "auto" {
		_, res, err = solve.Auto(in, par)
	} else {
		sol, ok := solve.Get(*alg)
		if !ok {
			log.Fatalf("unknown algorithm %q (run suu-sim -list for the catalogue)", *alg)
		}
		res, err = sol.Build(in, par)
	}
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("instance: %d jobs, %d machines, class %s, width %d, depth %d\n",
		in.N, in.M, in.Prec.Classify(), in.Prec.Width(), in.Prec.Depth())
	fmt.Printf("schedule: %s\n", res.Detail)
	if obl, ok := res.Policy.(*sched.Oblivious); ok {
		if *gantt > 0 {
			fmt.Print(obl.Gantt(*gantt))
		}
		if *stats {
			fmt.Print(sched.AnalyzePrefix(in, obl))
		}
		if *export != "" {
			data, err := json.MarshalIndent(obl, "", "  ")
			if err != nil {
				log.Fatal(err)
			}
			if err := os.WriteFile(*export, data, 0o644); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("schedule written to %s\n", *export)
		}
	} else {
		if *gantt > 0 || *export != "" {
			fmt.Println("(gantt/export ignored: schedule is adaptive)")
		}
		if *stats {
			if st := res.Exact; st != nil {
				fmt.Printf("exact search: %d closed states over %d layers (max eligible antichain %d, %d workers)\n",
					st.States, st.Layers, st.MaxEligible, st.Workers)
				fmt.Printf("  %d leaves valued, %d search children cut by the gain bound, %d transition entries, %d closed-form states\n",
					st.Assignments, st.Pruned, st.Transitions, st.ClosedForm)
			} else {
				fmt.Println("(stats ignored: adaptive schedule has no oblivious prefix and no search counters)")
			}
		}
	}

	sum, incomplete, eng := sim.EstimateParallelInfo(in, res.Policy, *reps, *maxSteps, *seed, 1)
	if *stats {
		fmt.Printf("engine: %s", eng.Engine)
		if eng.Lanes > 0 {
			fmt.Printf(", %d lanes", eng.Lanes)
		}
		if eng.States > 0 {
			fmt.Printf(", %d memoized states", eng.States)
		}
		fmt.Println()
	}
	fmt.Printf("E[makespan] ≈ %s", sum)
	if incomplete > 0 {
		fmt.Printf("  (%d/%d runs hit the step cap!)", incomplete, *reps)
	}
	fmt.Println()
}
