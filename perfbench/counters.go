package main

import (
	"runtime"
)

// counters is a cluster-wide sum of the daemon's own counters, read
// through its public accessors (Metrics, CacheStats, store and journal
// Stats, cluster Snapshot, hints Stats), plus the Go runtime's.
type counters struct {
	submitted, evicted, engineRuns, trials, peerHits, pushes int64
	cacheHits, cacheMisses                                   int64
	storeHits, storeMisses, storeWrites                      int64
	journalAccepts, journalSettles, compactions              int64
	hintAdds                                                 int64
	peerReqs, fetchHits, fetches, breakerOpen                int64
	storeFsyncs, queueFsyncs                                 int64
	allocBytes, numGC                                        int64
}

// snapshot reads every node's counters.
func snapshot(nodes []*node) counters {
	var c counters
	for _, n := range nodes {
		m := n.srv.Metrics()
		c.submitted += m.JobsSubmitted.Load()
		c.evicted += m.JobsEvicted.Load()
		c.engineRuns += m.EngineRuns.Load()
		c.trials += m.TrialsExecuted.Load()
		c.peerHits += m.PeerHits.Load()
		c.pushes += m.ReplicaPushes.Load()
		h, mi := n.srv.CacheStats()
		c.cacheHits += h
		c.cacheMisses += mi
		ss := n.st.Stats()
		c.storeHits += ss.Hits
		c.storeMisses += ss.Misses
		c.storeWrites += ss.Writes
		js := n.jl.Stats()
		c.journalAccepts += js.Accepts
		c.journalSettles += js.Settles
		c.compactions += js.Compactions
		if n.hl != nil {
			c.hintAdds += n.hl.Stats().Adds
		}
		if n.cl != nil {
			for _, r := range n.cl.Snapshot().Requests {
				c.peerReqs += r.Count
				if r.Op == "results" {
					c.fetches += r.Count
					if r.Outcome == "hit" {
						c.fetchHits += r.Count
					}
				}
				if r.Outcome == "open" { // refused by an open breaker
					c.breakerOpen += r.Count
				}
			}
		}
		for _, f := range n.fs {
			switch f.layer {
			case "store":
				c.storeFsyncs += f.fsyncs.Load()
			case "queue":
				c.queueFsyncs += f.fsyncs.Load()
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.allocBytes = int64(ms.TotalAlloc)
	c.numGC = int64(ms.NumGC)
	return c
}

// sub is the change from b to c.
func (c counters) sub(b counters) counters {
	return counters{
		submitted: c.submitted - b.submitted, evicted: c.evicted - b.evicted,
		engineRuns: c.engineRuns - b.engineRuns, trials: c.trials - b.trials,
		peerHits: c.peerHits - b.peerHits, pushes: c.pushes - b.pushes,
		cacheHits: c.cacheHits - b.cacheHits, cacheMisses: c.cacheMisses - b.cacheMisses,
		storeHits: c.storeHits - b.storeHits, storeMisses: c.storeMisses - b.storeMisses,
		storeWrites:    c.storeWrites - b.storeWrites,
		journalAccepts: c.journalAccepts - b.journalAccepts, journalSettles: c.journalSettles - b.journalSettles,
		compactions: c.compactions - b.compactions, hintAdds: c.hintAdds - b.hintAdds,
		peerReqs: c.peerReqs - b.peerReqs, fetchHits: c.fetchHits - b.fetchHits,
		fetches: c.fetches - b.fetches, breakerOpen: c.breakerOpen - b.breakerOpen,
		storeFsyncs: c.storeFsyncs - b.storeFsyncs, queueFsyncs: c.queueFsyncs - b.queueFsyncs,
		allocBytes: c.allocBytes - b.allocBytes, numGC: c.numGC - b.numGC,
	}
}
