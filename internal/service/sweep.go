package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"coordattack/internal/queue"
	"coordattack/internal/stats"
)

// sweepKeyVersion prefixes every sweep key, versioned independently of
// the job keyVersion (which is hashed into every cell key anyway).
const sweepKeyVersion = "coordd-sweep/v1"

// MaxSweepCells bounds the grid size of one sweep request, counted
// before deduplication so a hostile product of axes fails fast.
const MaxSweepCells = 256

// SweepSpec is the wire form of a parameter sweep: one base mc job spec
// plus value axes. The grid is the cartesian product of the axes, each
// cell a copy of the base with the axis values applied, canonicalized
// through the ordinary JobSpec path — so cells share the spec→key→cache
// machinery with individually submitted jobs, and a sweep re-run after
// its cells completed costs zero new trials.
type SweepSpec struct {
	Base JobSpec   `json:"base"`
	Axes SweepAxes `json:"axes"`
}

// SweepAxes are the supported sweep dimensions. Empty axes are skipped;
// all-empty axes make a one-cell sweep of the base spec.
type SweepAxes struct {
	// Graphs substitutes the base graph spec.
	Graphs []string `json:"graphs,omitempty"`
	// Rounds substitutes the round count.
	Rounds []int `json:"rounds,omitempty"`
	// Epsilon substitutes the per-round abort probability of the
	// randomized protocol, rewriting the protocol spec to "s:EPS"; it
	// requires the base protocol to be empty or an "s:..." spec.
	Epsilon []float64 `json:"epsilon,omitempty"`
	// FaultRate substitutes the fault spec with "rand:P"; 0 means no
	// fault injection for that cell.
	FaultRate []float64 `json:"fault_rate,omitempty"`
	// Trials substitutes the trial budget.
	Trials []int `json:"trials,omitempty"`
	// Seeds substitutes the root seed.
	Seeds []uint64 `json:"seeds,omitempty"`
}

// sweepCell is one grid point: the canonical job spec it expands to,
// its content key, and the axis coordinates for presentation. The jobID
// is filled by the dispatcher when the cell is submitted.
type sweepCell struct {
	params map[string]string
	spec   JobSpec
	key    string

	mu     sync.Mutex
	jobID  string
	errMsg string // submit-time failure (drain/abort), when jobID is empty
}

// axisValue is one (name, rendered value, apply) triple during
// expansion.
type axisValue struct {
	name  string
	value string
	apply func(*JobSpec)
}

// axes flattens the non-empty axes into expansion order. The order is
// fixed — it determines grid enumeration order, though not the sweep
// key, which is order-independent.
func (a SweepAxes) axes() []([]axisValue) {
	var out [][]axisValue
	add := func(vals []axisValue) {
		if len(vals) > 0 {
			out = append(out, vals)
		}
	}
	var g []axisValue
	for _, v := range a.Graphs {
		v := v
		g = append(g, axisValue{"graph", normSpec(v), func(s *JobSpec) { s.Graph = v }})
	}
	add(g)
	var r []axisValue
	for _, v := range a.Rounds {
		v := v
		r = append(r, axisValue{"rounds", fmt.Sprintf("%d", v), func(s *JobSpec) { s.Rounds = v }})
	}
	add(r)
	var e []axisValue
	for _, v := range a.Epsilon {
		v := v
		e = append(e, axisValue{"epsilon", fmt.Sprintf("%g", v), func(s *JobSpec) { s.Protocol = fmt.Sprintf("s:%g", v) }})
	}
	add(e)
	var f []axisValue
	for _, v := range a.FaultRate {
		v := v
		f = append(f, axisValue{"fault_rate", fmt.Sprintf("%g", v), func(s *JobSpec) {
			if v == 0 {
				s.Fault = ""
			} else {
				s.Fault = fmt.Sprintf("rand:%g", v)
			}
		}})
	}
	add(f)
	var t []axisValue
	for _, v := range a.Trials {
		v := v
		t = append(t, axisValue{"trials", fmt.Sprintf("%d", v), func(s *JobSpec) { s.Trials = v }})
	}
	add(t)
	var sd []axisValue
	for _, v := range a.Seeds {
		v := v
		sd = append(sd, axisValue{"seed", fmt.Sprintf("%d", v), func(s *JobSpec) { s.Seed = v }})
	}
	add(sd)
	return out
}

// expand validates the sweep and returns its deduplicated cell grid in
// enumeration order plus the sweep key. Every cell is canonicalized
// through JobSpec.Canonicalize, so an invalid grid point rejects the
// whole sweep at submit time. Cells whose canonical keys collide (two
// spellings of one computation, or a duplicated axis value) are merged,
// keeping the first occurrence.
func (ss SweepSpec) expand() ([]*sweepCell, string, error) {
	if e := normSpec(ss.Base.Engine); e != "" && e != EngineMC {
		return nil, "", fmt.Errorf("service: sweeps support only the mc engine, got %q", ss.Base.Engine)
	}
	if len(ss.Axes.Epsilon) > 0 {
		if p := normSpec(ss.Base.Protocol); p != "" && !strings.HasPrefix(p, "s") {
			return nil, "", fmt.Errorf("service: epsilon axis needs an s:EPS base protocol, got %q", ss.Base.Protocol)
		}
	} else if normSpec(ss.Base.Protocol) == "" {
		return nil, "", fmt.Errorf("service: sweep base needs a protocol (or an epsilon axis)")
	}

	axes := ss.Axes.axes()
	cells := 1
	for _, ax := range axes {
		cells *= len(ax)
		if cells > MaxSweepCells {
			return nil, "", fmt.Errorf("service: sweep grid exceeds %d cells", MaxSweepCells)
		}
	}

	var out []*sweepCell
	seen := make(map[string]bool)
	// pick[i] indexes the chosen value of axes[i]; odometer enumeration.
	pick := make([]int, len(axes))
	for {
		spec := ss.Base
		params := make(map[string]string, len(axes))
		for i, ax := range axes {
			av := ax[pick[i]]
			av.apply(&spec)
			params[av.name] = av.value
		}
		canon, err := spec.Canonicalize()
		if err != nil {
			return nil, "", fmt.Errorf("service: sweep cell %v: %w", params, err)
		}
		if key := canon.Key(); !seen[key] {
			seen[key] = true
			out = append(out, &sweepCell{params: params, spec: canon, key: key})
		}
		// Advance the odometer, most-significant axis first.
		i := len(axes) - 1
		for ; i >= 0; i-- {
			pick[i]++
			if pick[i] < len(axes[i]) {
				break
			}
			pick[i] = 0
		}
		if i < 0 {
			break
		}
	}

	// The sweep key is content-addressed over the *set* of cell keys:
	// axis reorderings and duplicate values that expand to the same grid
	// share a key.
	keys := make([]string, 0, len(out))
	for _, c := range out {
		keys = append(keys, c.key)
	}
	sort.Strings(keys)
	sum := sha256.Sum256([]byte(sweepKeyVersion + "\n" + strings.Join(keys, "\n")))
	return out, hex.EncodeToString(sum[:]), nil
}

// Sweep is one submitted sweep: its cells, dispatched as ordinary jobs,
// and a done channel closed when every cell has settled.
type Sweep struct {
	id    string
	seq   int64 // admission sequence behind id; orders retention
	key   string
	cells []*sweepCell
	done  chan struct{}
	// cancelled stops the dispatcher from submitting further cells;
	// set by CancelSweep.
	cancelled atomic.Bool
}

// SweepRow is one cell of the tradeoff table served by the sweep
// endpoints. For a done cell the Wilson 95% intervals of the outcome
// estimates are rolled up from the job body, TA being the liveness (L)
// and PA the unsafety (U) of the paper's tradeoff; LOverU is their
// point-estimate ratio when PA is nonzero — the quantity the paper
// bounds by the round count.
type SweepRow struct {
	Params    map[string]string `json:"params"`
	JobID     string            `json:"job_id,omitempty"`
	Key       string            `json:"key"`
	State     State             `json:"state"`
	Cached    bool              `json:"cached,omitempty"`
	Coalesced bool              `json:"coalesced,omitempty"`
	Completed int               `json:"completed,omitempty"`
	Stopped   bool              `json:"stopped,omitempty"`
	TA        *stats.Interval   `json:"ta_wilson95,omitempty"`
	PA        *stats.Interval   `json:"pa_wilson95,omitempty"`
	NA        *stats.Interval   `json:"na_wilson95,omitempty"`
	LOverU    float64           `json:"l_over_u,omitempty"`
	Error     string            `json:"error,omitempty"`
}

// SweepStatus is the aggregate wire form of a sweep.
type SweepStatus struct {
	ID    string `json:"id"`
	Key   string `json:"key"`
	State State  `json:"state"`
	Cells int    `json:"cells"`
	// Done/Failed/Cancelled count settled cells; Done counts successes
	// only.
	Done      int        `json:"done"`
	Failed    int        `json:"failed,omitempty"`
	Cancelled int        `json:"cancelled,omitempty"`
	Table     []SweepRow `json:"table"`
}

// SubmitSweep expands spec into its cell grid and schedules every cell
// as an ordinary job through Submit — so cells are answered from the
// result cache, coalesced onto in-flight twins, or enqueued, exactly
// like individual submissions. The returned status is the submission-
// time view; poll or watch the sweep for the rolled-up table.
func (s *Server) SubmitSweep(spec SweepSpec) (*SweepStatus, error) {
	cells, key, err := spec.expand()
	if err != nil {
		return nil, err
	}
	s.metrics.SweepsSubmitted.Add(1)
	s.metrics.SweepCells.Add(int64(len(cells)))

	sw := &Sweep{key: key, cells: cells, done: make(chan struct{})}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, ErrDraining
	}
	if s.sched.Depth() >= s.cfg.QueueDepth {
		// Overload shedding: a sweep accepted while the queue is slammed
		// would park a dispatcher goroutine spinning on ErrQueueFull.
		// Rejecting up front (429 + Retry-After) keeps degraded operation
		// cheap and honest — the client retries when there is room.
		s.mu.Unlock()
		s.metrics.SweepsRejected.Add(1)
		return nil, ErrQueueFull
	}
	s.nextID++
	sw.seq = s.nextID
	sw.id = fmt.Sprintf("sw%06d", sw.seq)
	s.sweeps[sw.id] = sw
	// Registering the dispatcher under the lock orders this Add before
	// Drain's Wait: a sweep accepted before draining is always waited
	// for.
	s.wg.Add(1)
	s.mu.Unlock()
	go s.dispatchSweep(sw)
	return s.sweepStatus(sw), nil
}

// dispatchSweep submits every cell, riding out queue-full backpressure
// with a small backoff and aborting the remainder when the server
// drains, then waits for all submitted cells to settle before marking
// the sweep done.
func (s *Server) dispatchSweep(sw *Sweep) {
	defer s.wg.Done()
	// LIFO: the sweep settles (done closes), then the GC pass runs, so a
	// just-settled sweep immediately counts toward the retention limit.
	defer s.gcSweeps()
	defer close(sw.done)
	var jobs []*Job
	for _, c := range sw.cells {
		for {
			if sw.cancelled.Load() {
				// Sweep-level cancel: stop dispatching. Every cell never
				// submitted settles as cancelled right here; cells already
				// in flight were cancelled by CancelSweep's fan-out and
				// settle through their jobs.
				for _, rest := range sw.cells {
					rest.mu.Lock()
					if rest.jobID == "" && rest.errMsg == "" {
						rest.errMsg = "sweep cancelled"
					}
					rest.mu.Unlock()
				}
				goto wait
			}
			// Cells enter the scheduler on the sweep's own flow: the fair
			// pass round-robins this sweep against the interactive flow
			// (and other sweeps), so a saturating grid no longer starves
			// singleton submissions.
			st, err := s.submit(c.spec, queue.ClassSweep, sw.id)
			if err == nil {
				if s.cellAdmitted != nil {
					s.cellAdmitted()
				}
				c.mu.Lock()
				c.jobID = st.ID
				c.mu.Unlock()
				// A CancelSweep since the check above found no job id on
				// this cell and skipped it, so cancel the job here.
				// CancelSweep sets the flag before it reads ids and the id
				// is recorded before this re-check, so at least one side
				// sees the other; a double cancel is harmless.
				if sw.cancelled.Load() {
					_, _ = s.Cancel(st.ID)
				}
				if j, jerr := s.job(st.ID); jerr == nil {
					jobs = append(jobs, j)
				}
				break
			}
			if err == ErrQueueFull {
				time.Sleep(5 * time.Millisecond)
				continue
			}
			// Draining (or a spec regression): record and stop
			// dispatching — the cells already in flight still settle.
			c.mu.Lock()
			c.errMsg = err.Error()
			c.mu.Unlock()
			if err == ErrDraining {
				for _, rest := range sw.cells {
					rest.mu.Lock()
					if rest.jobID == "" && rest.errMsg == "" {
						rest.errMsg = ErrDraining.Error()
					}
					rest.mu.Unlock()
				}
				goto wait
			}
			break
		}
	}
wait:
	for _, j := range jobs {
		<-j.done
	}
}

// sweepStatus renders the aggregate view: per-cell job status with the
// Wilson intervals unpacked from done bodies, and the rolled-up state —
// running until every cell settles, then done / failed / cancelled by
// worst cell outcome.
func (s *Server) sweepStatus(sw *Sweep) *SweepStatus {
	st := &SweepStatus{
		ID:    sw.id,
		Key:   sw.key,
		Cells: len(sw.cells),
		Table: make([]SweepRow, 0, len(sw.cells)),
	}
	settled := 0
	for _, c := range sw.cells {
		row := SweepRow{Params: c.params, Key: c.key, State: StateQueued}
		c.mu.Lock()
		jobID, errMsg := c.jobID, c.errMsg
		c.mu.Unlock()
		if jobID != "" {
			if js, err := s.Get(jobID); err == nil {
				row.JobID = js.ID
				row.State = js.State
				row.Cached = js.Cached
				row.Coalesced = js.Coalesced
				row.Completed = js.Progress.Completed
				row.Error = js.Error
				if js.State == StateDone {
					fillRowFromBody(&row, js.Result)
				}
			}
		} else if errMsg != "" {
			row.State = StateCancelled
			row.Error = errMsg
		}
		if row.State.Terminal() {
			settled++
			switch row.State {
			case StateDone:
				st.Done++
			case StateFailed:
				st.Failed++
			default:
				st.Cancelled++
			}
		}
		st.Table = append(st.Table, row)
	}
	switch {
	case settled < len(sw.cells):
		st.State = StateRunning
	case st.Failed > 0:
		st.State = StateFailed
	case st.Cancelled > 0:
		st.State = StateCancelled
	default:
		st.State = StateDone
	}
	return st
}

// fillRowFromBody unpacks a done mc body's intervals into the row. A
// body that does not parse as an mc result (foreign engine, corrupt
// cache) just leaves the intervals absent.
func fillRowFromBody(row *SweepRow, body json.RawMessage) {
	var b mcBody
	if err := json.Unmarshal(body, &b); err != nil || b.Result == nil {
		return
	}
	ta, pa, na := b.TAWilson95, b.PAWilson95, b.NAWilson95
	row.TA, row.PA, row.NA = &ta, &pa, &na
	row.Stopped = b.Result.Stopped
	if b.Result.Completed > 0 && b.Result.PA.Hits > 0 {
		row.LOverU = b.Result.TA.Mean() / b.Result.PA.Mean()
	}
}

// gcSweeps evicts the oldest settled sweeps past the retention limit,
// so Server.sweeps stays bounded in a long-lived daemon. Unsettled
// sweeps never count against the limit and are never evicted — only
// knowledge that has fully settled (and whose cells are memoized in the
// result cache anyway) is forgotten. Evicted sweep ids answer 404.
func (s *Server) gcSweeps() {
	s.mu.Lock()
	defer s.mu.Unlock()
	settled := make([]*Sweep, 0, len(s.sweeps))
	for _, sw := range s.sweeps {
		select {
		case <-sw.done:
			settled = append(settled, sw)
		default:
		}
	}
	if len(settled) <= s.cfg.SweepRetention {
		return
	}
	sort.Slice(settled, func(a, b int) bool { return settled[a].seq < settled[b].seq })
	for _, sw := range settled[:len(settled)-s.cfg.SweepRetention] {
		delete(s.sweeps, sw.id)
		s.metrics.SweepsEvicted.Add(1)
	}
}

// sweep looks a sweep up by id.
func (s *Server) sweep(id string) (*Sweep, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sw, ok := s.sweeps[id]
	if !ok {
		return nil, ErrNotFound
	}
	return sw, nil
}

// CancelSweep cancels a whole sweep: the dispatcher stops submitting
// further cells, and the cancellation fans out to every cell already
// dispatched through the ordinary job Cancel path — queued cells settle
// immediately, running cells when their engine notices, settled cells
// are untouched (per-job Cancel is idempotent), so cancelling a settled
// sweep is a no-op that just returns its status. Unknown ids are
// ErrNotFound.
func (s *Server) CancelSweep(id string) (*SweepStatus, error) {
	sw, err := s.sweep(id)
	if err != nil {
		return nil, err
	}
	sw.cancelled.Store(true)
	for _, c := range sw.cells {
		c.mu.Lock()
		jobID := c.jobID
		c.mu.Unlock()
		if jobID != "" {
			// The job may have been evicted by the jobs GC; a missing id
			// just means that cell settled long ago.
			_, _ = s.Cancel(jobID)
		}
	}
	return s.sweepStatus(sw), nil
}

// GetSweep returns a sweep's current aggregate status.
func (s *Server) GetSweep(id string) (*SweepStatus, error) {
	sw, err := s.sweep(id)
	if err != nil {
		return nil, err
	}
	return s.sweepStatus(sw), nil
}

// Sweeps lists every known sweep, oldest first.
func (s *Server) Sweeps() []*SweepStatus {
	s.mu.Lock()
	all := make([]*Sweep, 0, len(s.sweeps))
	for _, sw := range s.sweeps {
		all = append(all, sw)
	}
	s.mu.Unlock()
	sort.Slice(all, func(a, b int) bool { return all[a].seq < all[b].seq })
	out := make([]*SweepStatus, len(all))
	for i, sw := range all {
		out[i] = s.sweepStatus(sw)
	}
	return out
}
