package sim

import (
	"errors"
	"fmt"
	"sync"

	"coordattack/internal/graph"
	"coordattack/internal/protocol"
	"coordattack/internal/rng"
	"coordattack/internal/run"
)

// ErrNoFastPath is wrapped by NewEngine when the protocol or shape
// cannot use the zero-alloc path; callers classify with errors.Is and
// fall back to the reference engines.
var ErrNoFastPath = errors.New("sim: no fast path")

// Engine is the zero-alloc sequential trial engine. It owns every piece
// of per-trial scratch — the run bitset, the tape bank, the seed page,
// the protocol's struct-of-arrays state, and the output vector — so the
// steady-state loop
//
//	engine.LoadRun(r)            // or write engine.RunSet() directly
//	for trial := ...; { outs, _ := engine.Trial(stream, trial) }
//
// allocates nothing after warmup. Semantics are bit-identical to
// Outputs(p, g, r, StreamTapes(stream, trial)): same tape seeds, same
// transition order, same outputs; the differential suite enforces it.
//
// An Engine is not safe for concurrent use; Monte-Carlo workers each own
// one (see EnginePool). The slice returned by Trial is owned by the
// engine and overwritten by the next trial.
type Engine struct {
	p     protocol.FastProtocol
	g     *graph.G
	n, m  int
	state protocol.FastState
	rs    *run.Set
	bank  *rng.Bank
	page  rng.SeedPage
	outs  []bool
}

// NewEngine builds a fast engine for p on g with horizon n. The error
// wraps ErrNoFastPath when p offers no fast state or rejects the shape.
func NewEngine(p protocol.Protocol, g *graph.G, n int) (*Engine, error) {
	fp, ok := p.(protocol.FastProtocol)
	if !ok {
		return nil, fmt.Errorf("%w: %s has no fast state", ErrNoFastPath, p.Name())
	}
	state, err := fp.NewFastState(g, n)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrNoFastPath, p.Name(), err)
	}
	m := g.NumVertices()
	rs, err := run.NewSet(n, m)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNoFastPath, err)
	}
	return &Engine{
		p:     fp,
		g:     g,
		n:     n,
		m:     m,
		state: state,
		rs:    rs,
		bank:  rng.NewBank(m),
		outs:  make([]bool, m+1),
	}, nil
}

// N reports the engine's horizon.
func (e *Engine) N() int { return e.n }

// LoadRun loads r as the run every subsequent trial executes, validating
// it against the engine's graph exactly as the reference engine does.
func (e *Engine) LoadRun(r *run.Run) error {
	if r.N() != e.n {
		return fmt.Errorf("sim: engine built for N=%d, run has N=%d", e.n, r.N())
	}
	if err := r.Validate(e.g); err != nil {
		return fmt.Errorf("sim: run does not fit graph: %w", err)
	}
	return e.rs.LoadRun(r, e.m)
}

// RunSet exposes the engine's bitset so per-trial samplers can write the
// run in place instead of materializing a *run.Run. The caller must only
// mutate it between trials and keep it within the engine's graph.
func (e *Engine) RunSet() *run.Set { return e.rs }

// Trial executes one trial of the loaded run with the tapes of
// stream.Tape(trial, ·), reseeding the engine's bank from its seed page.
// The returned slice (index 1..m) is reused by the next trial.
func (e *Engine) Trial(stream rng.Stream, trial uint64) ([]bool, error) {
	e.page.Ensure(stream, trial, e.m)
	e.bank.ReseedFrom(&e.page, trial)
	return e.TrialSeeded()
}

// TrialSeeded executes one trial with the bank as already seeded — the
// entry point for callers that manage reseeding themselves.
func (e *Engine) TrialSeeded() (outs []bool, err error) {
	defer func() {
		if v := recover(); v != nil {
			outs, err = nil, &MachineError{
				Protocol: e.p.Name(), Phase: "fast-trial", Panicked: true, Value: v,
			}
		}
	}()
	if err := e.state.Init(e.rs, e.bank); err != nil {
		return nil, err
	}
	for round := 1; round <= e.n; round++ {
		for i := 1; i <= e.m; i++ {
			if err := e.state.Step(e.rs, round, graph.ProcID(i)); err != nil {
				return nil, err
			}
		}
	}
	for i := 1; i <= e.m; i++ {
		e.outs[i] = e.state.Output(graph.ProcID(i))
	}
	return e.outs, nil
}

// EnginePool recycles Engines for one (protocol, graph, horizon) shape
// across Monte-Carlo worker ranges via sync.Pool: warm engines keep their
// bitsets, banks, and pages, so a worker picking one up runs zero-alloc
// from its first trial.
type EnginePool struct {
	pool sync.Pool
}

// NewEnginePool validates the shape by building one engine eagerly (so
// callers learn about ErrNoFastPath up front) and seeds the pool with it.
func NewEnginePool(p protocol.Protocol, g *graph.G, n int) (*EnginePool, error) {
	first, err := NewEngine(p, g, n)
	if err != nil {
		return nil, err
	}
	ep := &EnginePool{pool: sync.Pool{New: func() any {
		e, err := NewEngine(p, g, n)
		if err != nil {
			// NewEngine is deterministic in (p, g, n); it cannot fail here
			// after succeeding above.
			panic(err)
		}
		return e
	}}}
	ep.pool.Put(first)
	return ep, nil
}

// Get returns a warm engine. Pair with Put.
func (ep *EnginePool) Get() *Engine { return ep.pool.Get().(*Engine) }

// Put returns an engine to the pool.
func (ep *EnginePool) Put(e *Engine) { ep.pool.Put(e) }
