package exp

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"suu/internal/stats"
)

// timedPairs is how many alternating pairs every timed record field
// and speed gate samples, unless a gate states its own count.
const timedPairs = 9

// spread is one timed side's median and quartiles, in milliseconds.
type spread struct{ Q1, Median, Q3 float64 }

func (s spread) String() string {
	return fmt.Sprintf("%.3fms (IQR %.3f–%.3f)", s.Median, s.Q1, s.Q3)
}

// timing is what sample measured.
type timing struct {
	// A and B are the two sides' spreads; B is zero when omitted.
	A, B spread
	// Ratio is the median over pairs of B's time over A's, so A's
	// speedup on B; zero when B is omitted.
	Ratio float64
	// Control is the register-only host control's median per-pair
	// speedup at 2 goroutines over 1; zero unless asked for.
	Control float64
}

// sample is the one timing protocol of the package. After one untimed
// call of each side it times a and b in k alternating pairs, odd pairs
// running b first, so a slow spell of the host falls on both sides.
// b may be nil, and then a alone is timed k times. With control, each
// pair also times a register-only loop at 1 and 2 goroutines: it
// touches no memory, so its scaling reads whether the host lent a
// second core, which only a worker-scaling check needs to know. The
// first error of a call stops the sampling.
func sample(k int, control bool, a, b func() error) (timing, error) {
	sides := []func() error{a}
	if b != nil {
		sides = append(sides, b)
	}
	for _, f := range sides {
		if err := f(); err != nil {
			return timing{}, err
		}
	}
	ms := make([][]float64, len(sides))
	var ratios, controls []float64
	for pair := 0; pair < k; pair++ {
		for n := range sides {
			s := n
			if pair%2 == 1 {
				s = len(sides) - 1 - n
			}
			t, err := clock(sides[s])
			if err != nil {
				return timing{}, err
			}
			ms[s] = append(ms[s], t)
		}
		if b != nil {
			ratios = append(ratios, ms[1][pair]/ms[0][pair])
		}
		if control {
			controls = append(controls, hostControl(1)/hostControl(2))
		}
	}
	var tm timing
	tm.A = spreadOf(ms[0])
	if b != nil {
		tm.B = spreadOf(ms[1])
		tm.Ratio = stats.Quantile(ratios, 0.5)
	}
	if control {
		tm.Control = stats.Quantile(controls, 0.5)
	}
	return tm, nil
}

func spreadOf(ms []float64) spread {
	return spread{stats.Quantile(ms, 0.25), stats.Quantile(ms, 0.5), stats.Quantile(ms, 0.75)}
}

// clock times one call of f in milliseconds. Outside sample it times
// only what must run once, such as the exhaustive-DP oracle.
func clock(f func() error) (float64, error) {
	start := time.Now()
	err := f()
	return float64(time.Since(start).Nanoseconds()) / 1e6, err
}

// perSec converts n operations in ms milliseconds to a rate per second.
func perSec(n int, ms float64) float64 { return float64(n) * 1000 / ms }

// controlIters is the host control's fixed xorshift work.
const controlIters = 4_000_000

// hostControl splits controlIters xorshift steps over the given number
// of goroutines and returns the wall-clock in milliseconds.
func hostControl(goroutines int) float64 {
	var sink atomic.Uint64
	ms, _ := clock(func() error {
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				x := uint64(88172645463325252)
				for i := 0; i < controlIters/goroutines; i++ {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
				}
				sink.Add(x)
			}()
		}
		wg.Wait()
		return nil
	})
	return ms
}
