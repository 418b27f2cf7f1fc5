package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"coordattack/internal/service"
)

// cluster-mix: skewed reads over a working set several times the
// per-node memory cache, beside fresh small jobs, on a 3-node ring.
var clusterMixDef = workloadDef{
	loop:      "closed",
	load:      fmt.Sprintf("clients=%d nodes=%d working_set=%d fresh_share=%g", runtime.NumCPU(), clusterNodes, clusterKeys, clusterFresh),
	tailP:     95,
	tailLimit: time.Second,
	new:       func(b *bench) instance { return &clusterMix{base: base{b: b}} },
}

const (
	clusterNodes = 3
	// clusterKeys is the working set: three times each node's memory
	// cache, so reads split across memory, store and peer tiers.
	clusterKeys     = 3 * coorddCache
	clusterPrefillC = 12
	clusterFresh    = 0.15 // share of window requests that are fresh jobs
	clusterZipfS    = 1.1  // read skew over the working set
	// Trial counts: prefill keys are cheap to compute, fresh jobs cost a
	// few milliseconds of engine each.
	clusterPrefillTrials = 100
	clusterFreshTrials   = 4000
	clusterPushWait      = 60 * time.Second
	monitorEvery         = time.Second
)

type clusterMix struct {
	base
	keys  []service.JobSpec // the working set, hottest first
	zipfs []*rand.Zipf      // one per load client
}

func (s *clusterMix) setup(tr *tracer) error {
	if err := s.boot(clusterNodes, tr); err != nil {
		return err
	}
	r := s.b.rng("cluster-mix/keys")
	s.keys = make([]service.JobSpec, clusterKeys)
	computeOn := make([]int, clusterKeys)
	for i := range s.keys {
		s.keys[i] = smallSpec(r, s.freshSeed(), clusterPrefillTrials)
		computeOn[i] = r.Intn(clusterNodes)
	}
	// Prefill in an order unrelated to popularity, so which keys each
	// node's LRU keeps after setup is not the read skew's order.
	var reqs []request
	for _, i := range r.Perm(clusterKeys) {
		reqs = append(reqs, request{node: computeOn[i], spec: s.keys[i], fresh: true})
	}
	if err := listLoop(s.b.ctx, clusterPrefillC, reqs, s.do); err != nil {
		return fmt.Errorf("prefilling the working set: %w", err)
	}
	if err := s.awaitReplicas(); err != nil {
		return err
	}
	// Skewed reads on every node until its registry is past retention;
	// they also settle which tier serves each key, so the window starts
	// close to its steady mix.
	var zipf *rand.Zipf
	err := s.pastRetention(clusterPrefillC, func(r *rand.Rand) service.JobSpec {
		if zipf == nil {
			zipf = rand.NewZipf(r, clusterZipfS, 1, clusterKeys-1)
		}
		return s.keys[zipf.Uint64()]
	})
	if err != nil {
		return err
	}
	clients := runtime.NumCPU()
	s.clientRngs("cluster-mix", clients)
	s.zipfs = make([]*rand.Zipf, clients)
	for c := range s.zipfs {
		s.zipfs[c] = rand.NewZipf(s.rngs[c], clusterZipfS, 1, clusterKeys-1)
	}
	return nil
}

// awaitReplicas waits until every working-set key is in the store of
// every member of its replica set. Replica pushes run off the request
// path, so the prefill's last ones may still be in flight.
func (s *clusterMix) awaitReplicas() error {
	byAddr := make(map[string]*node)
	for _, n := range s.ns {
		byAddr[n.cl.Self()] = n
	}
	keys := make([]string, len(s.keys))
	for i, spec := range s.keys {
		canon, err := spec.Canonicalize()
		if err != nil {
			return err
		}
		keys[i] = canon.Key()
	}
	deadline := time.Now().Add(clusterPushWait)
	for {
		held := make(map[*node]map[string]bool)
		for _, n := range s.ns {
			held[n] = make(map[string]bool)
			for _, k := range n.st.Keys() {
				held[n][k] = true
			}
		}
		missing := 0
		for _, k := range keys {
			for _, addr := range s.ns[0].cl.ReplicaSet(k) {
				if !held[byAddr[addr]][k] {
					missing++
				}
			}
		}
		if missing == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d replica copies of the working set still missing after %v", missing, clusterPushWait)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func (s *clusterMix) next(c int) request {
	r := s.rngs[c]
	node := r.Intn(clusterNodes)
	if r.Float64() < clusterFresh {
		return request{node: node, spec: smallSpec(r, s.freshSeed(), clusterFreshTrials), fresh: true}
	}
	return request{node: node, spec: s.keys[s.zipfs[c].Uint64()]}
}

func (s *clusterMix) window(dur time.Duration) windowResult {
	ctx, cancel := context.WithCancel(s.b.ctx)
	var att int
	done := make(chan struct{})
	go func() {
		defer close(done)
		att = s.monitor(ctx)
	}()
	outs, elapsed := closedLoop(s.b.ctx, len(s.rngs), dur, s.next, s.do)
	cancel()
	<-done
	return windowResult{outs: outs, elapsed: elapsed, extraAttempted: att}
}

// monitor scrapes /metrics and /healthz on every node about once a
// second, as an operator's dashboard would, until ctx ends. A failed
// scrape is a failed check.
func (s *clusterMix) monitor(ctx context.Context) (attempted int) {
	t := time.NewTicker(monitorEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return attempted
		case <-t.C:
		}
		for _, n := range s.ns {
			for _, path := range []string{"/metrics", "/healthz"} {
				attempted++
				if err := s.cl.get(ctx, n.base()+path); err != nil && ctx.Err() == nil {
					s.ck.fail(err)
				}
			}
		}
	}
}

func (s *clusterMix) verify(w windowResult, delta counters) {
	verifyCold(s.ck, s.b, w, delta)
	s.b.rep.printf("tiers: %d memory hits, %d store hits, %d peer hits, %d engine runs over %d requests; hints queued %d",
		delta.cacheHits, delta.storeHits, delta.peerHits, delta.engineRuns, len(w.outs), delta.hintAdds)
}
