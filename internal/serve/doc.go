// Package serve runs the solver registry and the simulation engines as
// a long-lived cached HTTP service — the layer behind cmd/suu-serve.
//
// # Endpoints
//
//	POST /v1/instances          submit an instance, get its content id
//	POST /v1/solve              build a schedule (solver id or "auto")
//	POST /v1/estimate           estimate E[makespan], optionally to a
//	                            requested 95% CI half-width
//	GET  /v1/schedules/{id}     fetch a schedule (json | gantt | analyze)
//	GET  /v1/solvers            the registry catalogue
//	GET  /healthz               liveness
//	GET  /statusz               uptime, config, per-cache counters
//	GET  /metricsz              per-endpoint latency quantiles (P²)
//
// # Caching contract
//
// Every cache key is a content fingerprint (internal/fingerprint) of a
// canonicalized request: instances hash their probability matrix and
// SORTED edge list, "auto" resolves to the concrete solver id before
// keying, and estimate keys include exactly the parameters that feed
// the repetition streams. Identical content therefore hits the same
// entry no matter how it arrived — inline or by reference, auto or
// explicit, whatever the JSON field order.
//
// Four LRU caches with independent byte budgets front the expensive
// steps: results (solve and estimate response bodies, with the built
// schedules — the schedule store), engines (sim.Prepared compiled
// simulation contexts; only oblivious schedules compile a table, an
// adaptive policy re-memoizes its states on every estimate), bases (LP optimal bases, so a re-solve after
// result eviction warm-starts pivot-free), and instances (submissions
// behind instance_id references). Builds are single-flight: N
// concurrent identical cold requests run ONE build, and the N-1
// coalesced waiters share its value (counted in /statusz).
//
// # Determinism and bit-identity
//
// Replies split a stable "result" object from a volatile "meta" object
// (cached / coalesced / build_ms). The result object is a pure
// function of the request content: cache hits return byte-identical
// result objects to cold builds (estimates inherit the engines'
// bit-identity contract — any engine, any worker count, same digits;
// pinned by TestServeCachedBitIdentical), so the cache can change
// wall-clock only, never a value. The one softness is deliberate: a
// re-solve after result eviction warm-starts from the cached LP basis
// and re-derives the same optimal vertex, with T* equal to the
// original to floating-point roundoff (see core.Params.WarmBasis) —
// the basis cache trades ulp-exactness across evictions for pivot-free
// re-solves, while unevicted entries stay byte-exact.
package serve
