package sim

// Rand is the randomness the engine draws on: one uniform in [0,1)
// per completion trial. *math/rand.Rand satisfies it, as does Stream.
type Rand interface {
	Float64() float64
}

// Stream is a SplitMix64 generator. The state is a counter, so a
// (seed, rep) pair maps to a stream by positioning the counter; every
// output passes through the full 64-bit finalizer, decorrelating
// nearby reps. Reseeding is two multiplies — no allocation, unlike
// rand.New — which is what lets the estimators derive an independent
// stream per repetition for free.
//
// The scalar walks derive the rep-r stream as Reseed(seed, r), so a
// repetition's draws are identical whether it runs sequentially or on
// any worker of any fan-out. Pair a Stream
// with a Runner to reproduce any single repetition in isolation.
type Stream struct {
	s uint64
}

// NewStream returns a stream positioned at (seed, 0).
func NewStream(seed int64) *Stream {
	s := &Stream{}
	s.Reseed(seed, 0)
	return s
}

// Reseed positions the stream for repetition rep of the run seeded
// with seed.
func (s *Stream) Reseed(seed, rep int64) {
	s.s = uint64(seed)*0x9E3779B97F4A7C15 + uint64(rep)*0xBF58476D1CE4E5B9 + 0x94D049BB133111EB
}

// ReseedTrial positions the stream at the (a, b)-indexed trial of the
// schedule rooted at seed. It extends Reseed with a second coordinate
// (a third independent odd multiplier), so the bit-parallel lane
// engine can key every completion trial by its position in the
// schedule — (occurrence index, 0) for the compiled oblivious walk,
// (step, job) for the adaptive table walk — rather than by draw
// order. Position-keying is what makes the lane-engine stream remap
// reproducible: skipping a trial (a lane already finished the job)
// costs nothing and never shifts any other trial's randomness.
// ReseedTrial(seed, a, 0) coincides with Reseed(seed, a).
func (s *Stream) ReseedTrial(seed, a, b int64) {
	s.s = uint64(seed)*0x9E3779B97F4A7C15 + uint64(a)*0xBF58476D1CE4E5B9 + uint64(b)*0xD1342543DE82EF95 + 0x94D049BB133111EB
}

// Uint64 returns the next 64 random bits.
func (s *Stream) Uint64() uint64 {
	s.s += 0x9E3779B97F4A7C15
	z := s.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Float64 returns a uniform draw in [0,1).
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Int63 returns 63 uniform bits. Together with Seed it makes *Stream
// a math/rand Source64, so harness code that needs rand.Rand's
// derived distributions (Intn for delay vectors, Perm, …) can draw
// them from the same SplitMix64 streams the engine and the grid use:
// rand.New(sim.NewStream(sim.SeedFor(root, label))). No experiment
// path should seed math/rand's default LCG — a shard boundary must
// never be able to observe generator state another cell advanced, and
// SeedFor-derived streams make sharing structurally impossible.
func (s *Stream) Int63() int64 { return int64(s.Uint64() >> 1) }

// Seed repositions the stream at (seed, 0), satisfying rand.Source.
func (s *Stream) Seed(seed int64) { s.Reseed(seed, 0) }

// SeedFor derives an independent seed for a labeled cell of work from
// a root seed: every (label, coords) combination maps to a
// decorrelated SplitMix64 state, so parallel harnesses can hand each
// cell its own deterministic randomness without sharing a generator.
// The derivation depends only on the arguments — never on scheduling
// — which is what keeps grid results bit-identical at any worker
// count. The label's length is mixed in as a terminator so the label
// bytes are domain-separated from the coords (no (label+byte, …) vs
// (label, byte, …) collisions); callers composing multiple strings
// into one cell identity should chain SeedFor calls rather than
// concatenate, so the field boundary stays encoded.
func SeedFor(root int64, label string, coords ...int64) int64 {
	s := Stream{s: uint64(root) ^ 0x6A09E667F3BCC909}
	h := s.Uint64()
	for _, b := range []byte(label) {
		s.s ^= uint64(b)
		h ^= s.Uint64()
	}
	s.s ^= uint64(len(label))
	h ^= s.Uint64()
	for _, c := range coords {
		s.s ^= uint64(c)
		h ^= s.Uint64()
	}
	return int64(h)
}
