package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"coordattack/internal/cluster"
	"coordattack/internal/hints"
	"coordattack/internal/mc"
	"coordattack/internal/queue"
	"coordattack/internal/stats"
	"coordattack/internal/store"
)

// Config tunes the scheduler.
type Config struct {
	// Workers is the number of concurrent jobs; 0 means 2.
	Workers int
	// TrialWorkers is the Monte-Carlo parallelism budget of one job. The
	// default (0) divides GOMAXPROCS evenly across the job pool, never
	// below 1, so a fully loaded pool runs at most ~GOMAXPROCS trial
	// goroutines instead of Workers×GOMAXPROCS.
	TrialWorkers int
	// QueueDepth bounds the pending submission queue; a full queue
	// rejects with ErrQueueFull (HTTP 429). 0 means 64. Journal replay
	// on restart may exceed it — accepted work is never dropped.
	QueueDepth int
	// StrictFIFO disables fair sharing: the scheduler degrades to one
	// global FIFO in admission order, ignoring flows, priorities, and
	// deadlines — the pre-scheduler behavior, kept for operators who
	// want it back (-fair-share=false).
	StrictFIFO bool
	// InteractiveWeight is how many interactive jobs the scheduler pops
	// per sweep-flow pop; 0 means 1 (equal shares). Raising it biases
	// the pool toward latency-sensitive singleton submissions.
	InteractiveWeight int
	// Journal, when non-nil, is the crash-safe pending-queue WAL
	// (internal/queue): every accepted job is appended (fsynced) before
	// its 202, tombstoned when it settles, and re-admitted by New on
	// restart. A nil Journal keeps the pending queue memory-only.
	Journal *queue.Journal
	// CacheSize bounds the result cache entry count; 0 means 1024.
	CacheSize int
	// JobTimeout is the per-job deadline; 0 means 5 minutes. A spec's
	// timeout_sec can lower it per job, never raise it.
	JobTimeout time.Duration
	// Store, when non-nil, is the durable second result tier under the
	// in-memory LRU: completed bodies are written through to it, and a
	// memory miss consults it before running the engine — which is what
	// makes a restarted daemon serve prior results as cache hits. A nil
	// Store keeps the daemon memory-only.
	Store *store.Store
	// SweepRetention bounds how many settled sweeps stay queryable;
	// older settled sweeps are evicted (404) so Server.sweeps cannot
	// grow without bound in a long-lived daemon. Unsettled sweeps are
	// never evicted. 0 means 256.
	SweepRetention int
	// JobRetention bounds how many settled jobs stay queryable in
	// Server.jobs, mirroring SweepRetention: the oldest settled jobs
	// past the limit are evicted (404). Unsettled jobs are never
	// evicted. 0 means 4096.
	JobRetention int
	// WatchdogInterval is how often the stuck-job watchdog scans for
	// running jobs past their deadline with no progress movement; 0
	// means 5 s, negative disables the watchdog.
	WatchdogInterval time.Duration
	// WatchdogGrace is how far past its deadline — with no progress
	// callback movement for at least as long — a running job must be
	// before the watchdog declares it stuck and kills it. 0 means 30 s.
	WatchdogGrace time.Duration
	// WrapEngine, when non-nil, wraps every engine execution: it
	// receives the engine name and the underlying run function and
	// returns the function actually run (still under panic isolation).
	// Chaos harnesses inject stalls and panics here.
	WrapEngine func(engine string, next RunFunc) RunFunc
	// Cluster, when non-nil, joins this daemon to a static peer set
	// (internal/cluster): local misses consult the key's ring owner
	// before running the engine, computed bodies replicate to their
	// owners, idle workers steal pending jobs from saturated peers, and
	// the peer-protocol endpoints under /v1/peer/ are served. A nil
	// Cluster keeps the daemon standalone.
	Cluster *cluster.Cluster
	// StealInterval is how often an idle node polls peers for stealable
	// work; 0 means 1 s, negative disables stealing (the node still
	// serves and fetches peer results).
	StealInterval time.Duration
	// StealPollInterval is how often a victim polls the thief for a
	// donated job's result; 0 means 200 ms.
	StealPollInterval time.Duration
	// StealPollFailures is how many consecutive unanswered (or
	// answered-but-unknowing) polls the victim tolerates before
	// presuming the thief dead and reclaiming the job; 0 means 4.
	StealPollFailures int
	// RepairInterval is how often the anti-entropy repair loop walks a
	// batch of local store keys and re-replicates any whose replica
	// peers are missing them; 0 means 5 s, negative disables repair.
	// Only meaningful with both Cluster and Store configured.
	RepairInterval time.Duration
	// RepairBatch bounds how many local keys one repair pass probes; 0
	// means 128. The cursor persists across passes, so the whole key
	// space is walked eventually regardless of batch size.
	RepairBatch int
	// RepairTimeout bounds one anti-entropy repair pass. <= 0 derives it
	// from RepairInterval, clamped to [1s, 10s], so a short interval
	// cannot overlap a stuck pass and a long one is not starved by its
	// own budget.
	RepairTimeout time.Duration
	// Hints, when non-nil, is the durable hinted-handoff log
	// (internal/hints): replica pushes that fail queue a (peer, key)
	// hint there and the failure detector drains it the moment the peer
	// answers a probe again. When nil and a Cluster is configured, the
	// server keeps a memory-only hint log — same healing behavior, no
	// crash durability.
	Hints *hints.Log
	// ProbeInterval is how often the peer failure detector pings every
	// peer (GET /v1/peer/ping); 0 means 1 s, negative disables the
	// detector (hints then deliver only via explicit replay or repair).
	ProbeInterval time.Duration
	// ProbeMisses is how many consecutive failed pings mark a peer dead;
	// 0 means 3.
	ProbeMisses int
}

func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = 2
	}
	if c.TrialWorkers == 0 {
		c.TrialWorkers = runtime.GOMAXPROCS(0) / c.Workers
		if c.TrialWorkers < 1 {
			c.TrialWorkers = 1
		}
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.InteractiveWeight == 0 {
		c.InteractiveWeight = 1
	}
	if c.CacheSize == 0 {
		c.CacheSize = 1024
	}
	if c.JobTimeout == 0 {
		c.JobTimeout = 5 * time.Minute
	}
	if c.SweepRetention == 0 {
		c.SweepRetention = 256
	}
	if c.JobRetention == 0 {
		c.JobRetention = 4096
	}
	if c.WatchdogInterval == 0 {
		c.WatchdogInterval = 5 * time.Second
	}
	if c.WatchdogGrace == 0 {
		c.WatchdogGrace = 30 * time.Second
	}
	if c.StealInterval == 0 {
		c.StealInterval = time.Second
	}
	if c.StealPollInterval == 0 {
		c.StealPollInterval = 200 * time.Millisecond
	}
	if c.StealPollFailures == 0 {
		c.StealPollFailures = 4
	}
	if c.RepairInterval == 0 {
		c.RepairInterval = 5 * time.Second
	}
	if c.RepairBatch == 0 {
		c.RepairBatch = 128
	}
	if c.RepairTimeout <= 0 {
		rt := c.RepairInterval
		if rt < time.Second {
			rt = time.Second
		}
		if rt > 10*time.Second {
			rt = 10 * time.Second
		}
		c.RepairTimeout = rt
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = time.Second
	}
	if c.ProbeMisses == 0 {
		c.ProbeMisses = 3
	}
	return c
}

// State is a job's lifecycle stage.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Sentinel errors the HTTP layer maps to status codes.
var (
	ErrQueueFull = fmt.Errorf("service: queue full")
	ErrDraining  = fmt.Errorf("service: server draining")
	ErrNotFound  = fmt.Errorf("service: no such job")
)

// Job is one scheduled computation. Progress counters are atomics so
// polling never contends with the worker; everything else is guarded by
// mu.
type Job struct {
	id   string
	seq  int64 // admission sequence behind id; orders retention
	key  string
	spec JobSpec // canonical
	// class is the scheduling class this job was admitted under, feeding
	// the per-class duration observations behind Retry-After. Written
	// once at admission (before the job is shared), read afterwards.
	class queue.Class

	ctx      context.Context
	cancel   context.CancelFunc
	done     chan struct{}
	deadline time.Time // ctx's deadline, cached for the watchdog

	completed atomic.Int64
	failed    atomic.Int64
	// lastMove is the wall-clock nanos of the last *advance* of the
	// progress counters (or of the run start). The watchdog reads it to
	// distinguish a slow-but-alive engine from a wedged one.
	lastMove atomic.Int64
	// slotFreed guards the running-gauge decrement: either the worker
	// (engine returned) or the watchdog (job declared stuck) frees the
	// slot, never both.
	slotFreed atomic.Bool

	mu        sync.Mutex
	state     State
	cached    bool
	coalesced bool
	// stolenBy is the peer currently computing this job after a steal
	// handoff; the job stays "queued" here while its follower goroutine
	// (awaitStolen) watches the thief.
	stolenBy string
	// comeHome is set with stolenBy: a token on it tells the follower
	// that the thief granted the job back to this node, which must then
	// run it (see adoptStolen).
	comeHome chan struct{}
	body     json.RawMessage
	errMsg   string
	token    *workerToken // the worker currently running this job

	// item is this job's scheduler entry while pending, and journaled
	// marks the job that owns its key's journal accept record (coalesced
	// followers share the key but never the record). Both are guarded by
	// Server.mu, not this mu.
	item      *queue.Item
	journaled bool
}

// Progress is the polling/streaming view of a job's advancement. CIWidth
// is the full width of the 95% Hoeffding deviation interval at the
// current completed-trial count: the caller-visible "how converged am I"
// number (1 before any trial completes).
type Progress struct {
	Trials    int     `json:"trials"`
	Completed int     `json:"completed"`
	Failed    int     `json:"failed"`
	CIWidth   float64 `json:"ci_width"`
}

// Status is the wire form of a job, served by every jobs endpoint.
type Status struct {
	ID     string `json:"id"`
	Key    string `json:"key"`
	State  State  `json:"state"`
	Cached bool   `json:"cached,omitempty"`
	// Coalesced marks a submission that attached to an identical
	// in-flight job instead of running the engine itself; it settles with
	// a copy of that job's outcome.
	Coalesced bool `json:"coalesced,omitempty"`
	// StolenBy names the peer currently computing this job after a
	// work-stealing handoff; empty once it settles or is reclaimed.
	StolenBy string          `json:"stolen_by,omitempty"`
	Spec     JobSpec         `json:"spec"`
	Progress Progress        `json:"progress"`
	Result   json.RawMessage `json:"result,omitempty"`
	Error    string          `json:"error,omitempty"`
}

func (j *Job) status() *Status {
	completed := int(j.completed.Load())
	width := 1.0
	if completed > 0 {
		if r, err := stats.HoeffdingRadius(completed, 0.05); err == nil {
			width = 2 * r
		}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return &Status{
		ID:        j.id,
		Key:       j.key,
		State:     j.state,
		Cached:    j.cached,
		Coalesced: j.coalesced,
		StolenBy:  j.stolenBy,
		Spec:      j.spec,
		Progress: Progress{
			Trials:    j.spec.Trials,
			Completed: completed,
			Failed:    int(j.failed.Load()),
			CIWidth:   width,
		},
		Result: j.body,
		Error:  j.errMsg,
	}
}

// finish moves the job to a terminal state exactly once.
func (j *Job) finish(state State, body json.RawMessage, errMsg string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return false
	}
	j.state = state
	j.body = body
	j.errMsg = errMsg
	close(j.done)
	return true
}

// finishIfQueued settles a job that never started running. A running
// job must settle through its worker instead, so the engine's partial
// result is preserved.
func (j *Job) finishIfQueued(state State, errMsg string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = state
	j.errMsg = errMsg
	close(j.done)
	return true
}

// Server is the job orchestrator: a bounded fair-share scheduler
// (internal/queue) drained by a fixed worker pool, a content-addressed
// result cache in front, an optional crash-safe pending-queue journal
// underneath, and a job registry behind the HTTP handlers (http.go).
type Server struct {
	cfg     Config
	cache   *Cache
	store   *store.Store     // nil = memory-only
	journal *queue.Journal   // nil = pending queue is memory-only
	cluster *cluster.Cluster // nil = standalone daemon
	hints   *hints.Log       // nil = standalone daemon (clustered servers always have one)
	metrics *Metrics
	engines map[string]engine

	running atomic.Int64

	mu   sync.Mutex
	jobs map[string]*Job
	// inflight maps a canonical key to the one job currently queued or
	// running for it: the coalescing registry. Entries are removed when
	// the job settles (after a successful body is cached), so a key
	// absent here with a cache miss really does need a fresh engine run.
	inflight map[string]*Job
	sweeps   map[string]*Sweep
	sched    *queue.Sched
	draining bool
	nextID   int64

	wg sync.WaitGroup

	// watchStop/watchDone bracket the stuck-job watchdog goroutine
	// (watchdog.go); both are nil when the watchdog is disabled.
	watchStop chan struct{}
	watchDone chan struct{}

	// stealStop/stealDone bracket the work-stealing loop (peer.go); both
	// are nil when the daemon is standalone or stealing is disabled.
	stealStop chan struct{}
	stealDone chan struct{}

	// repairStop/repairDone bracket the anti-entropy repair loop
	// (replicate.go); both are nil when repair is disabled. The cursor
	// and pass counters live behind repairMu.
	repairStop chan struct{}
	repairDone chan struct{}
	repairMu   sync.Mutex
	repairCur  string // last store key probed; next pass resumes after it
	repairRuns int64
	lastRepair time.Time

	// detectorOn marks a started failure detector so Drain knows to stop
	// it (set once in New, read in Drain).
	detectorOn bool
	// hintMu guards hintActive: the per-peer "a delivery goroutine is
	// already draining this peer" latch, so overlapping alive signals do
	// not double-deliver concurrently (delivery itself is idempotent).
	hintMu     sync.Mutex
	hintActive map[string]bool
	// rrSem is the read-repair in-flight budget: a full channel means
	// new read-repairs are skipped, not queued — the anti-entropy loop
	// remains the backstop.
	rrSem chan struct{}

	// cellAdmitted, when non-nil, runs in the sweep dispatcher between a
	// cell's admission and the recording of its job id: the window a
	// concurrent CancelSweep can fall into. Tests park the dispatcher
	// there; it is nil otherwise.
	cellAdmitted func()
}

// workerToken is one worker goroutine's claim on a pool slot. The
// watchdog abandons a token when its worker is wedged inside an engine
// that ignores cancellation: the wg share is released (so Drain does
// not wait on the wedged goroutine), a replacement worker is spawned,
// and the wedged goroutine exits the pool loop if the engine ever
// returns.
type workerToken struct {
	released  atomic.Bool
	abandoned atomic.Bool
}

// release gives up the token's wg share exactly once, no matter whether
// the worker itself or the watchdog triggers it.
func (t *workerToken) release(wg *sync.WaitGroup) {
	if t.released.CompareAndSwap(false, true) {
		wg.Done()
	}
}

// New starts a Server with cfg's worker pool already running. When a
// journal is configured, the pending jobs it recovered are re-admitted
// (ahead of new submissions) before the pool starts.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:        cfg,
		cache:      NewCache(cfg.CacheSize),
		store:      cfg.Store,
		journal:    cfg.Journal,
		cluster:    cfg.Cluster,
		hints:      cfg.Hints,
		metrics:    NewMetrics(),
		engines:    engineRegistry(),
		jobs:       make(map[string]*Job),
		inflight:   make(map[string]*Job),
		sweeps:     make(map[string]*Sweep),
		hintActive: make(map[string]bool),
		rrSem:      make(chan struct{}, readRepairBudget),
		sched: queue.NewSched(queue.SchedOptions{
			MaxDepth: cfg.QueueDepth,
			Strict:   cfg.StrictFIFO,
			Weight: func(c queue.Class) int {
				if c == queue.ClassInteractive {
					return cfg.InteractiveWeight
				}
				return 1
			},
		}),
	}
	s.replayJournal()
	for w := 0; w < cfg.Workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	if cfg.WatchdogInterval > 0 {
		s.watchStop = make(chan struct{})
		s.watchDone = make(chan struct{})
		go s.watchdog(cfg.WatchdogInterval)
	}
	if s.cluster != nil && cfg.StealInterval > 0 {
		s.stealStop = make(chan struct{})
		s.stealDone = make(chan struct{})
		go s.stealLoop(cfg.StealInterval)
	}
	if s.cluster != nil && s.store != nil && cfg.RepairInterval > 0 {
		s.repairStop = make(chan struct{})
		s.repairDone = make(chan struct{})
		go s.repairLoop(cfg.RepairInterval)
	}
	if s.cluster != nil {
		if s.hints == nil {
			// Every clustered server gets a hint log; without a configured
			// durable one it is memory-only (Open with an empty dir cannot
			// fail).
			s.hints, _ = hints.Open("", hints.Options{})
		}
		if cfg.ProbeInterval > 0 {
			s.detectorOn = true
			s.cluster.StartDetector(cluster.DetectorOptions{
				Interval: cfg.ProbeInterval,
				Misses:   cfg.ProbeMisses,
				OnAlive:  s.onPeerAlive,
			})
		}
	}
	return s
}

// Metrics exposes the server's counters (for tests and /metrics).
func (s *Server) Metrics() *Metrics { return s.metrics }

// CacheStats exposes the cache's hit/miss counters.
func (s *Server) CacheStats() (hits, misses int64) { return s.cache.Stats() }

// Submit canonicalizes spec, answers from the cache when possible,
// coalesces onto an identical in-flight job otherwise, and only then
// enqueues a fresh one. The returned Status is the submission-time
// view: state "done" with the result inline on a cache hit, "queued"
// (possibly coalesced) otherwise. Backpressure and drain are reported
// as ErrQueueFull and ErrDraining.
func (s *Server) Submit(spec JobSpec) (*Status, error) {
	return s.submit(spec, queue.ClassInteractive, "interactive")
}

// submit is Submit with an explicit scheduling envelope: individual
// submissions share the "interactive" flow, sweep cells ride their
// sweep's own flow (class "sweep"), so the fair scheduler round-robins
// sweeps against singletons instead of draining whichever came first.
func (s *Server) submit(spec JobSpec, class queue.Class, flow string) (*Status, error) {
	canon, err := spec.Canonicalize()
	if err != nil {
		return nil, err
	}
	key := canon.Key()
	s.metrics.JobsSubmitted.Add(1)

	j := s.newJob(canon, key)
	j.class = class
	if body, ok := s.cache.Get(key); ok {
		s.serveCached(j, body)
		return j.status(), nil
	}
	if body, ok := s.storeGet(key); ok {
		// Disk tier hit — a prior (possibly pre-restart) run settled this
		// key. Promote it into the memory LRU and serve it as a cache
		// hit; no engine run, so coordd_engine_runs_total stays put.
		s.cache.Put(key, body)
		s.serveCached(j, body)
		return j.status(), nil
	}

	s.mu.Lock()
	if leader, ok := s.inflight[key]; ok {
		// An identical job is already queued or running: attach to it
		// instead of computing twice. The wg.Add is safe here because a
		// registered leader's worker cannot have exited yet — it drops
		// the registry entry (under this lock) before returning.
		j.coalesced = true
		s.jobs[j.id] = j
		s.metrics.JobsCoalesced.Add(1)
		s.wg.Add(1)
		s.mu.Unlock()
		go s.follow(j, leader)
		return j.status(), nil
	}
	if body, ok := s.cache.Get(key); ok {
		// The leader settled between the unlocked cache check and here.
		// Its body was cached before the registry entry was dropped, so
		// this second check under the lock cannot miss.
		s.mu.Unlock()
		s.serveCached(j, body)
		return j.status(), nil
	}
	if s.draining {
		s.mu.Unlock()
		j.cancel()
		return nil, ErrDraining
	}
	it := &queue.Item{
		Key:      key,
		Flow:     flow,
		Class:    class,
		Priority: canon.Priority,
		Deadline: j.deadline,
		Payload:  j,
	}
	if err := s.sched.Push(it); err != nil {
		s.mu.Unlock()
		j.cancel()
		s.metrics.JobsRejected.Add(1)
		return nil, ErrQueueFull
	}
	s.jobs[j.id] = j
	s.inflight[key] = j
	j.item = it
	s.journalAccept(j, it)
	s.mu.Unlock()
	return j.status(), nil
}

// journalAccept appends j's accept record (fsynced) under s.mu, so the
// job's 202 is only sent once the accept is durable and no settle for
// this key can be logged before it. Rejected jobs never reach here — a
// full queue costs no fsync. Journal errors are advisory: the journal
// demotes itself to memory-only and admission proceeds.
func (s *Server) journalAccept(j *Job, it *queue.Item) {
	if s.journal == nil {
		return
	}
	specJSON, err := json.Marshal(j.spec)
	if err != nil {
		return
	}
	j.journaled = true
	_ = s.journal.Accept(queue.Record{
		Key:      j.key,
		Flow:     it.Flow,
		Class:    string(it.Class),
		Priority: it.Priority,
		Spec:     specJSON,
	})
}

// journalSettle tombstones j's journal entry, exactly once, and only if
// j owns it — coalesced followers share the leader's key but must not
// erase its pending record.
func (s *Server) journalSettle(j *Job) {
	if s.journal == nil {
		return
	}
	s.mu.Lock()
	owned := j.journaled
	j.journaled = false
	s.mu.Unlock()
	if owned {
		_ = s.journal.Settle(j.key)
	}
}

// replayJournal re-admits the pending jobs the journal recovered: each
// record's spec is re-canonicalized, answered from the durable result
// store when the settle beat the crash but its tombstone did not, and
// otherwise pushed back onto the scheduler (bypassing MaxDepth —
// accepted work is never dropped) in its original flow, with its
// original admission time. Records that no longer canonicalize (a spec
// regression across versions) are tombstoned and dropped; a key that
// re-canonicalizes differently (keyVersion bump) is re-accepted under
// the new key so a later crash replays the right one.
func (s *Server) replayJournal() {
	if s.journal == nil {
		return
	}
	for _, rec := range s.journal.Pending() {
		var spec JobSpec
		if err := json.Unmarshal(rec.Spec, &spec); err != nil {
			_ = s.journal.Settle(rec.Key)
			continue
		}
		canon, err := spec.Canonicalize()
		if err != nil {
			_ = s.journal.Settle(rec.Key)
			continue
		}
		key := canon.Key()
		j := s.newJob(canon, key)
		s.metrics.QueueReplayed.Add(1)
		if body, ok := s.storeGet(key); ok {
			// The engine ran and the body persisted before the crash; only
			// the tombstone was lost. Serve the stored result — no second
			// engine run — and settle the journal now.
			s.cache.Put(key, body)
			s.serveCached(j, body)
			_ = s.journal.Settle(rec.Key)
			continue
		}
		if key != rec.Key {
			_ = s.journal.Settle(rec.Key)
		}
		class := queue.Class(rec.Class)
		if class == "" {
			class = queue.ClassInteractive
		}
		flow := rec.Flow
		if flow == "" {
			flow = "interactive"
		}
		j.class = class
		if rec.Op == queue.OpIntent && rec.Thief != "" && s.cluster != nil && key == rec.Key {
			// The crash interrupted a steal handoff after the intent was
			// journaled but before the thief's commit tombstoned it. The
			// thief may well hold the job (it journaled it and crashed
			// before committing — its own replay re-runs it), or it may
			// never have durably taken it. Re-attach the follower: it polls
			// the recorded thief and reclaims for a local re-run only once
			// the thief provably has no record of the key. Blindly
			// re-enqueuing here would be the double-execution half of the
			// double-crash window the two-phase handoff closes.
			j.stolenBy = rec.Thief
			s.mu.Lock()
			s.jobs[j.id] = j
			s.inflight[key] = j
			j.journaled = true
			s.wg.Add(1)
			s.mu.Unlock()
			go s.awaitStolen(j, rec.Thief)
			continue
		}
		it := &queue.Item{
			Key:      key,
			Flow:     flow,
			Class:    class,
			Priority: rec.Priority,
			Deadline: j.deadline,
			Payload:  j,
		}
		if rec.At > 0 {
			it.Enqueued = time.Unix(0, rec.At)
		}
		s.mu.Lock()
		s.jobs[j.id] = j
		s.inflight[key] = j
		j.item = it
		if key == rec.Key {
			j.journaled = true
		} else {
			s.journalAccept(j, it)
		}
		s.mu.Unlock()
		s.sched.PushReplay(it)
	}
}

// serveCached settles a freshly created job inline with a memoized body.
func (s *Server) serveCached(j *Job, body json.RawMessage) {
	j.cached = true
	j.state = StateDone
	j.body = body
	j.completed.Store(int64(j.spec.Trials))
	close(j.done)
	j.cancel()
	s.register(j)
}

// storeGet consults the durable tier; a nil store always misses.
func (s *Server) storeGet(key string) (json.RawMessage, bool) {
	if s.store == nil {
		return nil, false
	}
	return s.store.Get(key)
}

// storePut writes a completed body through to the durable tier. Store
// errors are advisory — the job already succeeded and is cached in
// memory; the store demotes itself to read-only (and logs once), so the
// daemon degrades to memory-only instead of failing jobs.
func (s *Server) storePut(key string, body json.RawMessage) {
	if s.store == nil {
		return
	}
	_ = s.store.Put(key, body)
}

// follow settles a coalesced follower when its leader does, mirroring
// the leader's terminal state, body, and progress counters — a done
// leader hands every follower the identical result bytes, a failed or
// cancelled one propagates its error. The follower's own deadline and
// Cancel still apply: they detach it without touching the leader.
func (s *Server) follow(j, leader *Job) {
	defer s.wg.Done()
	defer j.cancel()
	select {
	case <-leader.done:
		leader.mu.Lock()
		state, body, errMsg := leader.state, leader.body, leader.errMsg
		leader.mu.Unlock()
		storeMax(&j.completed, leader.completed.Load())
		storeMax(&j.failed, leader.failed.Load())
		if j.finish(state, body, errMsg) {
			switch state {
			case StateDone:
				s.metrics.JobsCompleted.Add(1)
			case StateFailed:
				s.metrics.JobsFailed.Add(1)
			default:
				s.metrics.JobsCancelled.Add(1)
			}
		}
	case <-j.ctx.Done():
		if j.finishIfQueued(StateCancelled, j.ctx.Err().Error()) {
			s.metrics.JobsCancelled.Add(1)
		}
	case <-j.done: // cancelled directly through the API
	}
	s.gcJobs()
}

func (s *Server) newJob(canon JobSpec, key string) *Job {
	timeout := s.cfg.JobTimeout
	if t := time.Duration(canon.TimeoutSec) * time.Second; t > 0 && t < timeout {
		timeout = t
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	deadline, _ := ctx.Deadline()
	s.mu.Lock()
	s.nextID++
	seq := s.nextID
	s.mu.Unlock()
	return &Job{
		id: fmt.Sprintf("j%06d", seq), seq: seq, key: key, spec: canon,
		class: queue.ClassInteractive,
		ctx:   ctx, cancel: cancel, deadline: deadline,
		done:  make(chan struct{}),
		state: StateQueued,
	}
}

func (s *Server) register(j *Job) {
	s.mu.Lock()
	s.jobs[j.id] = j
	s.mu.Unlock()
	s.gcJobs()
}

// gcJobs evicts the oldest settled jobs past the retention limit,
// mirroring gcSweeps: Server.jobs (the id → job map behind GET
// /v1/jobs/{id}) must not grow without bound in a long-lived daemon.
// Unsettled jobs never count against the limit and are never evicted.
// Evicted job ids answer 404; their results stay memoized in the cache
// and store under the spec key.
func (s *Server) gcJobs() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.jobs) <= s.cfg.JobRetention {
		return
	}
	settled := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		select {
		case <-j.done:
			settled = append(settled, j)
		default:
		}
	}
	if len(settled) <= s.cfg.JobRetention {
		return
	}
	sort.Slice(settled, func(a, b int) bool { return settled[a].seq < settled[b].seq })
	for _, j := range settled[:len(settled)-s.cfg.JobRetention] {
		delete(s.jobs, j.id)
		s.metrics.JobsEvicted.Add(1)
	}
}

func (s *Server) job(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	return j, nil
}

// Get returns a job's current status.
func (s *Server) Get(id string) (*Status, error) {
	j, err := s.job(id)
	if err != nil {
		return nil, err
	}
	return j.status(), nil
}

// Jobs lists every known job, oldest first.
func (s *Server) Jobs() []*Status {
	s.mu.Lock()
	all := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		all = append(all, j)
	}
	s.mu.Unlock()
	sort.Slice(all, func(a, b int) bool { return all[a].seq < all[b].seq })
	out := make([]*Status, len(all))
	for i, j := range all {
		out[i] = j.status()
	}
	return out
}

// Cancel cancels a job. A queued job is finished immediately; a running
// one has its context cancelled and settles (possibly with a partial
// result) when its engine returns.
func (s *Server) Cancel(id string) (*Status, error) {
	j, err := s.job(id)
	if err != nil {
		return nil, err
	}
	j.cancel()
	if j.finishIfQueued(StateCancelled, context.Canceled.Error()) {
		// Finished here means the worker never started it; the worker
		// skips already-terminal jobs, so this is the only accounting.
		// A running job settles through its worker, keeping whatever
		// partial result the engine salvages. A settled leader must
		// leave the coalescing registry now — its worker's own drop only
		// happens once the job is dequeued. Withdraw it from the
		// scheduler too (freeing queue capacity immediately) and
		// tombstone its journal entry so a restart does not resurrect a
		// cancelled job.
		s.mu.Lock()
		it := j.item
		s.mu.Unlock()
		if it != nil {
			s.sched.Remove(it)
		}
		s.journalSettle(j)
		s.dropInflight(j)
		s.metrics.JobsCancelled.Add(1)
	}
	return j.status(), nil
}

// dropInflight removes j from the coalescing registry if it is still
// the registered job for its key.
func (s *Server) dropInflight(j *Job) {
	s.mu.Lock()
	if s.inflight[j.key] == j {
		delete(s.inflight, j.key)
	}
	s.mu.Unlock()
}

func (s *Server) worker() {
	t := &workerToken{}
	defer t.release(&s.wg)
	for {
		it, ok := s.sched.Next()
		if !ok {
			return
		}
		s.runJob(it.Payload.(*Job), t)
		if t.abandoned.Load() {
			// The watchdog replaced this worker while it was wedged in an
			// engine; its pool slot belongs to the replacement now.
			return
		}
	}
}

// storeMax raises a to at least v without ever lowering it (progress
// snapshots can arrive out of store order across mc workers) and
// reports whether it raised it — i.e. whether this snapshot was real
// forward movement, which is what feeds the watchdog's liveness clock.
func storeMax(a *atomic.Int64, v int64) bool {
	for {
		cur := a.Load()
		if v <= cur {
			return false
		}
		if a.CompareAndSwap(cur, v) {
			return true
		}
	}
}

// freeSlot decrements the running gauge for j exactly once: either the
// worker (engine returned) or the watchdog (job declared stuck) gets
// there first.
func (s *Server) freeSlot(j *Job) {
	if j.slotFreed.CompareAndSwap(false, true) {
		s.running.Add(-1)
	}
}

func (s *Server) runJob(j *Job, t *workerToken) {
	defer j.cancel()
	// The registry entry outlives the job body on purpose: the success
	// path caches the body first, so by the time the key leaves the
	// registry a re-submission is guaranteed to hit the cache.
	defer s.dropInflight(j)
	// LIFO: the journal tombstone lands while the key is still in the
	// coalescing registry, so a fresh accept of the same key cannot be
	// logged before this settle and then erased by it.
	defer s.journalSettle(j)
	j.mu.Lock()
	if j.state.Terminal() { // cancelled while queued
		j.mu.Unlock()
		return
	}
	j.mu.Unlock()
	// Cluster lookup sits between the local tiers and the engine: the
	// key's ring owner may already hold the body another node computed.
	// Checked before the job is marked running — a peer hit settles it
	// as a cache hit with no engine run counted. A hit that had to come
	// from a peer means some replicas (this node included, if it is in
	// the set) were missing the body: read-repair pushes it back to
	// them off the request path.
	if body, from, ok := s.peerFetch(j); ok {
		s.settlePeerResult(j, body)
		s.readRepair(j.key, body, from)
		return
	}
	j.mu.Lock()
	if j.state.Terminal() { // cancelled during the peer lookup
		j.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.token = t
	j.mu.Unlock()
	j.lastMove.Store(time.Now().UnixNano())

	s.running.Add(1)
	s.metrics.EngineRuns.Add(1)
	start := time.Now()
	run := engineRunFunc(s.engines[j.spec.Engine])
	if s.cfg.WrapEngine != nil {
		// The wrapper sits *inside* the panic isolation, so an injected
		// chaos panic is recovered like any engine panic.
		run = s.cfg.WrapEngine(j.spec.Engine, run)
	}
	body, err := runEngine(j.spec.Engine, run, j.ctx, j.spec, runParams{
		workers: s.cfg.TrialWorkers,
		progress: func(snap mc.Snapshot) {
			moved := storeMax(&j.completed, int64(snap.Completed))
			if storeMax(&j.failed, int64(snap.Failed)) {
				moved = true
			}
			if moved {
				j.lastMove.Store(time.Now().UnixNano())
			}
		},
	})
	s.metrics.ObserveJobSeconds(time.Since(start).Seconds(), j.class)
	s.metrics.TrialsExecuted.Add(j.completed.Load())
	s.freeSlot(j)

	var pe *PanicError
	won := false
	switch {
	case err == nil:
		// Cache before finish even if the watchdog already failed this
		// job: the body is valid deterministic work, and caching it first
		// preserves the registry-outlives-body ordering for followers.
		s.cache.Put(j.key, body)
		s.storePut(j.key, body)
		s.replicateResult(j.key, body)
		if won = j.finish(StateDone, body, ""); won {
			s.metrics.JobsCompleted.Add(1)
		}
	case errors.As(err, &pe):
		// A recovered engine panic fails this one job; the worker — and
		// the daemon — keep serving. Checked before the context, so a
		// panic racing a deadline still reports as the failure it is.
		s.metrics.EnginePanics.Add(1)
		if won = j.finish(StateFailed, nil, err.Error()); won {
			s.metrics.JobsFailed.Add(1)
		}
	case j.ctx.Err() != nil:
		// Cancelled or deadline-expired: keep the partial body so the
		// client still gets every completed trial.
		if won = j.finish(StateCancelled, body, err.Error()); won {
			s.metrics.JobsCancelled.Add(1)
		}
	default:
		if won = j.finish(StateFailed, body, err.Error()); won {
			s.metrics.JobsFailed.Add(1)
		}
	}
	_ = won // the watchdog may have settled the job first; metrics stay single-counted
	j.mu.Lock()
	j.token = nil
	j.mu.Unlock()
	s.gcJobs()
}

// gauges snapshots the point-in-time values for /metrics and /healthz.
func (s *Server) gauges() Gauges {
	hits, misses := s.cache.Stats()
	byClass := s.sched.DepthByClass()
	g := Gauges{
		JobsQueued:        s.sched.Depth(),
		QueueInteractive:  byClass[queue.ClassInteractive],
		QueueSweep:        byClass[queue.ClassSweep],
		QueueOldestAgeSec: s.sched.OldestAge(time.Now()).Seconds(),
		QueueFlows:        s.sched.Flows(),
		JobsRunning:       int(s.running.Load()),
		CacheSize:         s.cache.Len(),
		CacheHits:         hits,
		CacheMisses:       misses,
	}
	if s.store != nil {
		g.Store = s.store.Stats()
		g.StoreEnabled = true
	}
	if s.journal != nil {
		g.Journal = s.journal.Stats()
		g.JournalEnabled = true
	}
	if s.cluster != nil {
		g.Cluster = s.cluster.Snapshot()
		g.ClusterEnabled = true
	}
	if s.hints != nil {
		g.Hints = s.hints.Stats()
		g.HintsEnabled = true
	}
	return g
}

// retryAfter estimates the seconds until queue space frees up for one
// scheduling class: that class's queued backlog divided across the
// worker pool, scaled by the class's observed mean job duration (the
// overall mean before the class has finished anything, 1 s before
// anything at all has), clamped to [1, 300]. It is the Retry-After
// header on 429 responses; using per-class means keeps a saturating
// sweep's multi-minute cells from inflating interactive clients'
// backoff by two orders of magnitude.
func (s *Server) retryAfter(class queue.Class) (secs, depth, capacity int) {
	depth = s.sched.Depth()
	capacity = s.cfg.QueueDepth
	classDepth := s.sched.DepthByClass()[class]
	mean := s.metrics.MeanJobSecondsClass(class)
	if mean <= 0 {
		mean = 1
	}
	est := math.Ceil(float64(classDepth+1) / float64(s.cfg.Workers) * mean)
	secs = int(est)
	if secs < 1 {
		secs = 1
	}
	if secs > 300 {
		secs = 300
	}
	return secs, depth, capacity
}

// Drain stops accepting jobs, lets queued and running work finish, and
// returns when the pool is idle. If ctx expires first every in-flight
// job is cancelled (settling with partial results) and Drain still
// waits for the workers to exit before returning ctx's error.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		s.sched.Close()
		if s.watchStop != nil {
			// Stop the watchdog before waiting on the pool: a kill racing
			// the drain would otherwise spawn a replacement worker while
			// wg.Wait is in flight.
			close(s.watchStop)
		}
		if s.stealStop != nil {
			// Stop the steal loop too: a draining node must neither adopt
			// new work nor keep polling peers.
			close(s.stealStop)
		}
		if s.repairStop != nil {
			close(s.repairStop)
		}
	}
	s.mu.Unlock()
	if s.watchDone != nil {
		<-s.watchDone
	}
	if s.stealDone != nil {
		<-s.stealDone
	}
	if s.repairDone != nil {
		<-s.repairDone
	}
	if s.detectorOn {
		// Synchronous: after this returns no OnAlive callback can fire,
		// so no new hint-delivery goroutine can race the wg.Wait below
		// (the ones already spawned hold wg shares and drain normally).
		s.cluster.StopDetector()
	}

	idle := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(idle)
	}()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for _, j := range s.jobs {
			j.cancel()
		}
		s.mu.Unlock()
		<-idle
		return ctx.Err()
	}
}
