// Command perfbench is the repository's benchmark. It starts coordd
// nodes in process, wired as cmd/coordd wires them with -store-dir and
// -queue-dir set and every other flag at its default, serves them on
// real loopback listeners, drives one workload from a single
// load-generating client, checks every output, and prints each metric
// by name with its unit and the attempted and failed request counts.
// The last line of output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root (run.sh builds it first and keeps
// every file it writes under .bench_build):
//
//	bash perfbench/run.sh --workload cold-mc --seed 1 --seconds 15 --trace 0
//	bash perfbench/run.sh --workload all
//
// It exits 1 when an output check fails, 2 on bad arguments.
//
// # Workloads
//
// The seed generates every request; the nodes see only those requests.
// Every workload's setup also sends cache hits until each node's job
// registry is past -job-retention (4096) and evicting, so that the
// window runs in the state a long-lived daemon serves in.
//
//   - cold-mc: closed loop, one client per CPU, one node. Every request
//     is a fresh key: Protocol S (s:0.1), 10 rounds. Graphs (pair,
//     complete:4, ring:6), runs (good, cut:1 to cut:10) and request
//     classes follow fixed cycles, so every window carries the same mix
//     of work; the seed sets the job seeds. In each cycle of 20 requests,
//     17 condition on a fixed run (20000 trials), 2 draw a run per trial
//     with a loss:P sampler (2000 trials) and 1 injects random process
//     faults, rand:0.2, which runs on mc's reference path (1000 trials).
//     Why: the engine does nearly all of each request's work, so any
//     trial-engine change shows here and only here. Tail p95, limit 1 s.
//   - hit-flood: open loop at 150 requests/s, one node. Setup computes 32
//     hot keys and floods them until the registry evicts. Every request
//     is a POST answered 200 done from the memory cache. Why: the work is
//     all HTTP, decode, Canonicalize and Key, cache and job registry,
//     with no engine run and no disk. The rate is well below the daemon's
//     capacity past retention, so the latency is the admit path's cost
//     and not queueing. Tail p99, limit 50 ms. After the window, a
//     bisection over a fixed ladder of rates 8% apart finds the highest
//     that meets the limit with no backlog (max_rate_ops_s).
//   - cluster-mix: closed loop, one client per CPU, three nodes. 85% of
//     requests are Zipf-skewed reads over 3072 keys, three times each
//     node's memory cache, each prefilled by computing it once on some
//     node, so reads split across memory, store and peer tiers. 15% are
//     fresh jobs of 4000 trials, which write a journal accept and settle,
//     a store entry and replica pushes, after peer lookups that miss. A
//     monitor scrapes /metrics and /healthz on every node once a second.
//     Why: the only workload where the store, the queue journal and the
//     cluster carry load, with writes beside reads. Tail p95, limit 1 s.
//
// # End-to-end metrics
//
// Every untraced run reports ops_per_s (requests settled done that
// passed every check, per second), latency_p50_ms (submit to settled;
// for a 202 the settle time is the watch stream's terminal line; in the
// open loop, from when the request was due), live_heap_mb (after a
// forced GC at the end of the window) and setup_s (the median of three
// set-ups: node boot with store and journal open, and the workload's
// warm-up and prefill). Beside them it prints, ungated,
// latency_tail_ms: the workload's tail percentile, or the highest lower
// one that leaves ten samples beyond it, with the percentile and the
// sample count. On a shared two-vCPU host its run-to-run spread is wider
// than any bound a gate may use. trials_per_s, error_rate and
// hit-flood's max_rate_ops_s are printed ungated too.
//
// # Output checks
//
// Each failed check counts as a failure. Every body served for a key,
// from any tier or node, must equal the first body seen for it, in the
// compact form the daemon stores. A seeded sample of 16 fresh results is
// recomputed with mc.Estimate and must match byte for byte. Fixed-run
// Protocol S results must contain the exact Pr[TA|R] and Pr[PA|R] of
// core.Analyze in their Wilson intervals, at a z that spends a 1e-4
// false-alarm budget per run. hit-flood's window must run no engine
// and touch no disk; cold-mc and cluster-mix must run the engine
// exactly once per fresh key, cluster-wide.
//
// # Traced run
//
// --trace 1 sets up once with trace wrappers at the daemon's existing
// public seams: a middleware around Server.Handler, Config.WrapEngine,
// a store.FS per directory (store, queue journal, hint log) and the
// cluster's http.RoundTripper. Each request is one span tree whose spans
// share the job key from Status.Key. The first half of the window runs
// with recording off, the second with it on; the difference between the
// two is the tracing overhead. Spans are written to .bench_build/trace.
// Per-layer metrics come from the spans (self time is a span minus the
// part its children cover), from the daemon's counters (Metrics,
// CacheStats, store and journal Stats, cluster Snapshot, hints Stats),
// and from direct probes of sim.Engine.Trial, mc.Estimate at one and at
// all workers, in-process Server.Submit of a cached key past retention,
// and JobSpec.Canonicalize with Key. A metric for work the workload does
// not do reads 0.
//
// Layers, named after the modules, with the end-to-end metric each
// should move, where it does the work, and where no move is predicted:
//
//	layer metrics                                  moves                      work in                no move
//	sim.trial_ns.{pair,complete4,ring6},           trials_per_s, p50          cold-mc                hit-flood
//	  sim.allocs_per_trial
//	mc.trials_per_s.{one,all}, mc.scaling_eff,     trials_per_s, tail         cold-mc                hit-flood
//	  mc.reference_trials_per_s, mc.reference_share
//	service.engine_ms, .engine_busy_share,         p50, tail                  cold-mc, cluster-mix   hit-flood
//	  .queue_wait_ms
//	service.submit_hit_us, .canon_key_us,          p50, max_rate, live_heap   hit-flood              cold-mc
//	  .jobs_evicted_per_op, .cache_hit_ratio
//	service.engine_runs_per_cold_op,               ops_per_s                  cluster-mix            hit-flood
//	  .peer_hits_per_op
//	http.handler_us, http.overhead_us              p50, max_rate              hit-flood              cold-mc
//	queue.journal_append_us, .journal_fsyncs_per_op, p50, ops_per_s           cluster-mix            hit-flood
//	  .compactions
//	store.put_us, .read_us, .fsyncs_per_op,        tail, ops_per_s            cluster-mix            hit-flood
//	  .hit_ratio
//	cluster.fetch_ms, .push_ms, .peer_reqs_per_op, p50, ops_per_s             cluster-mix            cold-mc, hit-flood
//	  .fetch_hit_ratio, .breaker_opens
//	hints.queued (0 in a healthy run)              error_rate                 cluster-mix            all
//	go.alloc_bytes_per_op, go.gc_cycles_per_kop    tail, live_heap            hit-flood              -
//
// Interactions to read these predictions with:
//   - gcJobs sorts every settled job under the server's lock on each
//     registration, so cache hits are serialised; freeing that lock should
//     raise max_rate_ops_s by more than the per-op saving alone.
//   - In the cluster, the peer 404 lookups and the store put's fsyncs sit
//     on a fresh job's blocking path and replica pushes do not, so only
//     the first two should move fresh-request latency.
//   - An engine speed-up saves at most the engine's share of a request
//     (Amdahl's law).
//   - go.* counts the whole process, load generator included.
//   - cluster-mix's reads move from the peer tier to the store tier as
//     the window runs, so its second half is faster than its first and
//     the traced run's overhead there reads negative.
package main
