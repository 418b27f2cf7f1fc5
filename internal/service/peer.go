package service

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"time"

	"coordattack/internal/cluster"
	"coordattack/internal/queue"
)

// This file is the service side of the static-peer cluster
// (internal/cluster): the peer-protocol HTTP handlers, the worker-path
// peer lookup, and the work-stealing machinery.
//
// Results are content-addressed (coordd/v2 keys), so any node can serve
// any node's result byte-for-byte. The consistent-hash ring names a
// replica set per key — the owner plus its distinct successors, Factor
// peers in total; a local miss consults the replicas in ring order
// before running the engine, and every computed body is replicated to
// all of them (the anti-entropy loop in replicate.go heals any push
// that failed), so any single node death loses no cached result.
//
// Stealing moves *pending* jobs from a saturated node (the victim) to
// an idle one (the thief) in two phases. INTENT: the victim re-stamps
// the job's journal record with the thief's address (fsynced) before
// the grant leaves; the job stays pending in its journal. COMMIT: the
// thief appends the job to its own WAL, then posts a commit, and only
// then does the victim tombstone. A crash at any point leaves at least
// one journal owning the job, and the victim's follower (awaitStolen)
// reclaims it for local re-run only once the thief provably has no
// record of it — so a thief+victim double crash strands nothing and no
// crash schedule runs a key twice.

// maxPeerBodyBytes bounds a replicated result body accepted over PUT.
const maxPeerBodyBytes = 32 << 20

// validKey reports whether key looks like a coordd/v2 result key: 64
// lowercase hex digits. Peer endpoints reject anything else before
// touching the cache or disk.
func validKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// handlePeerGetResult serves GET /v1/peer/results/{key}: the bit-exact
// stored body for a settled key, or 404 on a clean miss. Peers use it
// both for owner lookups and for following stolen jobs.
func (s *Server) handlePeerGetResult(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !validKey(key) {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "malformed result key"})
		return
	}
	body, ok := s.cache.Get(key)
	if !ok {
		if body, ok = s.storeGet(key); ok {
			s.cache.Put(key, body)
		}
	}
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "no result for key"})
		return
	}
	if r.Method != http.MethodHead {
		// HEAD probes from the repair loop are existence checks, not
		// served results.
		s.metrics.PeerServed.Add(1)
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(body)
}

// handlePeerPutResult accepts PUT /v1/peer/results/{key}: a peer
// replicating a computed body to this node (the key's ring owner). The
// bytes are stored verbatim — they must stay bit-identical cluster-wide.
func (s *Server) handlePeerPutResult(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !validKey(key) {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "malformed result key"})
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxPeerBodyBytes+1))
	if err != nil || len(body) == 0 || len(body) > maxPeerBodyBytes || !json.Valid(body) {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "bad result body"})
		return
	}
	s.cache.Put(key, json.RawMessage(body))
	s.storePut(key, json.RawMessage(body))
	w.WriteHeader(http.StatusNoContent)
}

// handlePeerSteal serves POST /v1/peer/steal: an idle peer asking this
// node to donate pending work.
func (s *Server) handlePeerSteal(w http.ResponseWriter, r *http.Request) {
	var req cluster.StealRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Want < 1 {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "bad steal request"})
		return
	}
	writeJSON(w, http.StatusOK, cluster.StealResponse{Jobs: s.stealVictim(req.Want, req.Thief)})
}

// handlePeerStealCommit serves POST /v1/peer/steal/commit: the thief
// confirming it has journaled the listed stolen keys into its own WAL.
// Only now does the victim tombstone its intent records — ownership has
// provably transferred. A commit for a key this node has meanwhile
// reclaimed (the thief went quiet past the poll budget, then the commit
// arrived late) is ignored: the local journal record backs the local
// re-run, and content-addressed results make the overlap harmless.
func (s *Server) handlePeerStealCommit(w http.ResponseWriter, r *http.Request) {
	var req cluster.CommitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Thief == "" {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "bad steal commit"})
		return
	}
	for _, key := range req.Keys {
		if !validKey(key) {
			continue
		}
		s.mu.Lock()
		j := s.inflight[key]
		s.mu.Unlock()
		if j == nil {
			continue
		}
		j.mu.Lock()
		committed := j.stolenBy == req.Thief
		j.mu.Unlock()
		if committed {
			s.journalSettle(j)
		}
	}
	w.WriteHeader(http.StatusNoContent)
}

// handlePeerKnowsJob serves GET /v1/peer/jobs/{key}: whether this node
// has any durable record of key — an in-flight job (its own journal
// accept), or a cached/stored result. The victim's stolen-job follower
// uses it to distinguish a thief that is still working (or restarted
// with the job in its WAL) from one that never durably took the job.
func (s *Server) handlePeerKnowsJob(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !validKey(key) {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "malformed result key"})
		return
	}
	s.mu.Lock()
	_, inflight := s.inflight[key]
	s.mu.Unlock()
	known := inflight
	if !known {
		_, known = s.cache.Get(key)
	}
	if !known {
		_, known = s.storeGet(key)
	}
	if !known {
		writeJSON(w, http.StatusNotFound, apiError{Error: "unknown key"})
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Known bool `json:"known"`
	}{Known: true})
}

// handleAdminCluster serves GET /v1/admin/cluster: ring membership,
// per-peer breaker state, the peer request counters, and the
// replication/repair health summary.
func (s *Server) handleAdminCluster(w http.ResponseWriter, r *http.Request) {
	if s.cluster == nil {
		writeJSON(w, http.StatusNotFound, apiError{Error: "cluster disabled"})
		return
	}
	writeJSON(w, http.StatusOK, adminCluster{
		Snapshot:    s.cluster.Snapshot(),
		Replication: s.replicationInfo(),
	})
}

// peerFetch consults the key's replica set for an already-computed
// body: the ring owner first, then each distinct successor, skipping
// self (the local tiers already missed). Called on the worker path
// before the engine runs; any peer failure degrades to local compute —
// a dead replica costs one breaker-limited timeout, never correctness.
// The serving peer's address comes back with the body so the caller's
// read-repair can skip the one replica known to hold it.
func (s *Server) peerFetch(j *Job) (json.RawMessage, string, bool) {
	if s.cluster == nil {
		return nil, "", false
	}
	body, from, ok := s.cluster.FetchResult(j.ctx, j.key)
	if !ok {
		return nil, "", false
	}
	return json.RawMessage(body), from, true
}

// settlePeerResult finishes j with a body retrieved from a peer —
// served as a cache hit: memoized locally, full trial count, no engine
// run counted.
func (s *Server) settlePeerResult(j *Job, body json.RawMessage) {
	s.cache.Put(j.key, body)
	s.storePut(j.key, body)
	j.mu.Lock()
	j.cached = true
	j.stolenBy = ""
	j.mu.Unlock()
	j.completed.Store(int64(j.spec.Trials))
	if j.finish(StateDone, body, "") {
		s.metrics.JobsCompleted.Add(1)
		s.metrics.PeerHits.Add(1)
	}
}

// replicateResult pushes a freshly computed body to every member of the
// key's replica set (owner + distinct successors, self excluded), off
// the worker path. A push that fails is no longer silently dropped: it
// is counted per peer (coordd_replica_push_failures_total{peer}) and a
// hint is queued so the failure detector delivers the body the moment
// the peer answers a probe again — the anti-entropy repair loop stays
// as the backstop, not the primary heal. The body is already durable
// locally (storePut runs before this), so the hint carries only the
// (peer, key) pair.
func (s *Server) replicateResult(key string, body json.RawMessage) {
	if s.cluster == nil {
		return
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for _, addr := range s.cluster.ReplicaSet(key) {
			if addr == s.cluster.Self() {
				continue
			}
			if err := s.cluster.PushTo(context.Background(), addr, key, body); err != nil {
				s.metrics.IncReplicaPushFailure(addr)
				s.hintAdd(addr, key)
				continue
			}
			s.metrics.ReplicaPushes.Add(1)
		}
	}()
}

// stealVictim donates up to want pending jobs to thief. The grant is
// capped at the backlog surplus beyond this node's own worker pool —
// a node never donates work its own idle-in-a-moment workers would
// take next. Donated jobs keep their HTTP-visible Job here: the journal
// record is re-stamped as a steal intent (fsynced before the grant
// leaves; the tombstone waits for the thief's commit) and a follower
// goroutine polls the thief for the result.
func (s *Server) stealVictim(want int, thief string) []cluster.StolenJob {
	if s.cluster == nil || want < 1 {
		return nil
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	surplus := s.sched.Depth() - s.cfg.Workers
	if surplus < want {
		want = surplus
	}
	if want < 1 {
		s.mu.Unlock()
		return nil
	}
	items := s.sched.Steal(want)
	granted := make([]cluster.StolenJob, 0, len(items))
	var followers []*Job
	for _, it := range items {
		j := it.Payload.(*Job)
		j.mu.Lock()
		terminal := j.state.Terminal()
		if !terminal {
			j.stolenBy = thief
			j.comeHome = make(chan struct{}, 1)
		}
		j.mu.Unlock()
		if terminal {
			// Cancelled while queued; Cancel already settled and
			// tombstoned it. Popping it here just swept it out.
			continue
		}
		specJSON, err := json.Marshal(j.spec)
		if err != nil {
			continue
		}
		j.item = nil
		granted = append(granted, cluster.StolenJob{
			Key:      j.key,
			Flow:     it.Flow,
			Class:    string(it.Class),
			Priority: it.Priority,
			Spec:     specJSON,
		})
		followers = append(followers, j)
		s.metrics.JobsDonated.Add(1)
		s.wg.Add(1)
	}
	s.mu.Unlock()
	for _, j := range followers {
		// Phase one: stamp the journal record with the thief's address
		// before the grant leaves. The job stays pending here — only the
		// thief's commit (after it journals the job itself) tombstones it,
		// so no crash schedule leaves the job owned by nobody's WAL.
		s.journalIntent(j, thief)
		go s.awaitStolen(j, thief)
	}
	return granted
}

// journalIntent re-stamps j's pending journal record with the thief's
// address (phase one of the two-phase handoff), only if j owns its
// record. Ownership is NOT cleared: the victim's journal keeps the job
// until the thief's commit settles it.
func (s *Server) journalIntent(j *Job, thief string) {
	if s.journal == nil {
		return
	}
	s.mu.Lock()
	owned := j.journaled
	s.mu.Unlock()
	if owned {
		_ = s.journal.Intent(j.key, thief)
	}
}

// awaitStolen is the victim's remote follower for one donated job: it
// polls the thief for the result, settles the local Job when it lands,
// and falls back to local recompute if the thief provably lost the job.
// The job stays "queued" (with stolen_by set) while remote, so API
// cancel keeps working through the normal queued-cancel path.
//
// The reclaim rule is the liveness half of the two-phase handoff: a
// poll that errors AND a clean miss from a thief with no record of the
// key both count against the poll budget; a thief that answers "I know
// this job" (running it, or restarted with it in its WAL) resets the
// budget. Reclaiming trades the L/U-style residual — a thief that
// revives with the job in its WAL *after* the budget re-runs the key
// once more elsewhere — for never stranding a job; results are content-
// addressed, so the overlap costs compute, never correctness. A job
// that comes home (see adoptStolen) is reclaimed at once.
func (s *Server) awaitStolen(j *Job, thief string) {
	defer s.wg.Done()
	tick := time.NewTicker(s.cfg.StealPollInterval)
	defer tick.Stop()
	j.mu.Lock()
	comeHome := j.comeHome
	j.mu.Unlock()
	fails := 0
	for {
		select {
		case <-comeHome:
			fails = s.cfg.StealPollFailures
		case <-j.done:
			// Settled through the API (cancel) — Cancel did the
			// accounting and the journal tombstone; nothing left to
			// follow.
			j.cancel()
			return
		case <-j.ctx.Done():
			if j.finishIfQueued(StateCancelled, j.ctx.Err().Error()) {
				s.metrics.JobsCancelled.Add(1)
			}
			s.journalSettle(j)
			s.dropInflight(j)
			return
		case <-tick.C:
		}
		if fails < s.cfg.StealPollFailures {
			body, found, err := s.cluster.FetchFrom(j.ctx, thief, j.key)
			if found {
				s.settlePeerResult(j, body)
				// The intent record may still be pending (the thief's
				// commit crashed or lost a race); the body is durable
				// locally now, so the journal is done with this job
				// either way.
				s.journalSettle(j)
				j.cancel()
				s.dropInflight(j)
				return
			}
			if err == nil {
				// Clean miss: no result yet. Ask whether the thief still
				// has any record of the job before counting the miss
				// against the reclaim budget — a restarted-but-recovering
				// thief (journaled, crashed before running) answers yes
				// and must be waited out, one that never durably took the
				// job answers no.
				if known, kerr := s.cluster.KnowsJob(j.ctx, thief, j.key); kerr == nil && known {
					fails = 0
					continue
				}
			}
			fails++
			if fails < s.cfg.StealPollFailures {
				continue
			}
		}
		// Thief presumed to have lost the job: take it back. The intent
		// record is re-stamped as a plain accept (reclaiming must survive
		// a crash here too) and the job re-enqueues past MaxDepth —
		// accepted work is never dropped.
		s.mu.Lock()
		if s.draining {
			// Leave the intent record pending: the job settles cancelled
			// for this process's clients, but a restart replays the intent
			// and the job still runs somewhere — journal ownership is not
			// discarded on the way down.
			s.mu.Unlock()
			if j.finishIfQueued(StateCancelled, "cluster: thief lost during drain") {
				s.metrics.JobsCancelled.Add(1)
			}
			s.dropInflight(j)
			return
		}
		j.mu.Lock()
		j.stolenBy = ""
		j.mu.Unlock()
		it := &queue.Item{
			Key:      j.key,
			Flow:     "interactive",
			Class:    queue.ClassInteractive,
			Priority: j.spec.Priority,
			Deadline: j.deadline,
			Payload:  j,
		}
		j.item = it
		s.journalAccept(j, it)
		s.mu.Unlock()
		s.sched.PushReplay(it)
		s.metrics.JobsReclaimed.Add(1)
		return
	}
}

// adoptStolen admits jobs granted by a victim into this node's own
// queue, registry, and journal. Keys already settled or in flight
// locally are skipped — the victim's follower finds the body through
// the results endpoint either way. It returns how many jobs entered the
// local queue and the victim keys this node now durably owns (freshly
// journaled, already settled, or already in flight under a local
// accept) — the set the steal loop commits back to the victim.
func (s *Server) adoptStolen(jobs []cluster.StolenJob) (adopted int, committed []string) {
	for _, sj := range jobs {
		var spec JobSpec
		if err := json.Unmarshal(sj.Spec, &spec); err != nil {
			continue
		}
		canon, err := spec.Canonicalize()
		if err != nil {
			continue
		}
		// Adopt under our own canonical key. On version skew it may
		// differ from the victim's; the victim's follower then falls back
		// to recompute — degraded, never wrong. Only same-key adoptions
		// are committed: the victim tombstones the key it granted, so the
		// commit must vouch for that exact key.
		key := canon.Key()
		if _, ok := s.cache.Get(key); ok {
			if key == sj.Key {
				committed = append(committed, key)
			}
			continue
		}
		if body, ok := s.storeGet(key); ok {
			s.cache.Put(key, body)
			if key == sj.Key {
				committed = append(committed, key)
			}
			continue
		}
		j := s.newJob(canon, key)
		class := queue.Class(sj.Class)
		if class == "" {
			class = queue.ClassInteractive
		}
		j.class = class
		flow := sj.Flow
		if flow == "" {
			flow = "interactive"
		}
		it := &queue.Item{
			Key:      key,
			Flow:     flow,
			Class:    class,
			Priority: sj.Priority,
			Deadline: j.deadline,
			Payload:  j,
		}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			j.cancel()
			continue
		}
		if cur := s.inflight[key]; cur != nil {
			// Already queued or running here under a local accept record;
			// this node owns the key's fate, so the victim can tombstone.
			// If this node donated the key and is following it, the grant
			// is the job coming home through a steal cycle: after the
			// commit the victim follows this node, so this node must run
			// it, or each node on the cycle waits on the next forever.
			// Off a cycle this can run the key once more elsewhere, which
			// like any reclaim costs compute, never correctness.
			cur.mu.Lock()
			select {
			case cur.comeHome <- struct{}{}:
			default: // not following, or already told
			}
			cur.mu.Unlock()
			s.mu.Unlock()
			j.cancel()
			if key == sj.Key {
				committed = append(committed, key)
			}
			continue
		}
		s.jobs[j.id] = j
		s.inflight[key] = j
		j.item = it
		s.journalAccept(j, it)
		s.mu.Unlock()
		// Replay admission: a steal this node asked for must not bounce
		// off its own MaxDepth.
		s.sched.PushReplay(it)
		s.metrics.JobsStolen.Add(1)
		adopted++
		if key == sj.Key {
			committed = append(committed, key)
		}
	}
	return adopted, committed
}

// stealLoop runs on every cluster node: whenever the local pool has
// idle workers and an empty backlog, it asks each live peer in turn to
// donate pending work. Stopped by Drain.
func (s *Server) stealLoop(interval time.Duration) {
	defer close(s.stealDone)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-s.stealStop:
			return
		case <-tick.C:
		}
		s.mu.Lock()
		draining := s.draining
		s.mu.Unlock()
		if draining {
			return
		}
		free := s.cfg.Workers - int(s.running.Load())
		if free < 1 || s.sched.Depth() > 0 {
			continue
		}
		for _, peer := range s.cluster.PeerAddrs() {
			if free < 1 {
				break
			}
			if s.cluster.PeerDown(peer) {
				continue
			}
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			jobs, err := s.cluster.StealFrom(ctx, peer, free)
			cancel()
			if err != nil || len(jobs) == 0 {
				continue
			}
			adopted, committed := s.adoptStolen(jobs)
			free -= adopted
			if len(committed) > 0 {
				// Phase two: the stolen keys are in this node's WAL (or
				// already settled here); tell the victim it may tombstone
				// its intents. A failed commit is safe — the victim keeps
				// its records and its follower waits on this node, which
				// now provably knows the jobs.
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				if err := s.cluster.CommitSteal(ctx, peer, committed); err == nil {
					s.metrics.StealCommits.Add(1)
				}
				cancel()
			}
		}
	}
}
