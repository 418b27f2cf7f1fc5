package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"

	"coordattack/internal/cliutil"
	"coordattack/internal/core"
	"coordattack/internal/fault"
	"coordattack/internal/mc"
	"coordattack/internal/rng"
	"coordattack/internal/run"
	"coordattack/internal/service"
	"coordattack/internal/sim"
	"coordattack/internal/stats"
)

// falseAlarmBudget is the chance, per run, that the exact-probability
// check fails a correct daemon: it is split evenly (Bonferroni) over
// every Wilson interval the run checks.
const falseAlarmBudget = 1e-4

// rederiveSample is how many results per run are recomputed with
// mc.Estimate and compared byte for byte.
const rederiveSample = 16

// checker applies the output checks. Every check that fails is counted
// once in failed; a request that fails one also counts as failed.
type checker struct {
	mu     sync.Mutex
	first  map[string][sha256.Size]byte // key → digest of the first body seen
	keys   map[service.JobSpec]string   // sent spec → canonical key
	failed int
	msgs   []string
}

func newChecker() *checker {
	return &checker{first: make(map[string][sha256.Size]byte), keys: make(map[service.JobSpec]string)}
}

// fail counts one failed check, keeping the first few messages.
func (c *checker) fail(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failed++
	if len(c.msgs) < 8 {
		c.msgs = append(c.msgs, err.Error())
	}
}

// canonicalKey is the key the daemon must report for spec.
func (c *checker) canonicalKey(spec service.JobSpec) (string, error) {
	c.mu.Lock()
	key, ok := c.keys[spec]
	c.mu.Unlock()
	if ok {
		return key, nil
	}
	canon, err := spec.Canonicalize()
	if err != nil {
		return "", err
	}
	key = canon.Key()
	c.mu.Lock()
	c.keys[spec] = key
	c.mu.Unlock()
	return key, nil
}

// request checks one settled request and marks it failed on the first
// violation: it must have settled done under the canonical key of the
// spec sent, with a body byte-identical to the first body any tier or
// node served for that key.
func (c *checker) request(o *outcome) {
	if o.err != nil {
		c.fail(o.err)
		return
	}
	if err := c.checkBody(o); err != nil {
		o.err = err
		c.fail(err)
	}
}

func (c *checker) checkBody(o *outcome) error {
	want, err := c.canonicalKey(o.spec)
	if err != nil {
		return fmt.Errorf("canonicalizing sent spec: %w", err)
	}
	if o.st.Key != want {
		return fmt.Errorf("job %s: key %s, want %s", o.st.ID, o.st.Key, want)
	}
	if len(o.st.Result) == 0 {
		return fmt.Errorf("job %s: done without a result body", o.st.ID)
	}
	return c.sameBody(want, o.st.Result)
}

// sameBody records body's digest as key's reference on first sight and
// otherwise requires byte equality with that body, by digest.
func (c *checker) sameBody(key string, body []byte) error {
	sum := sha256.Sum256(body)
	c.mu.Lock()
	defer c.mu.Unlock()
	first, ok := c.first[key]
	if !ok {
		c.first[key] = sum
		return nil
	}
	if first != sum {
		return fmt.Errorf("key %s: body differs from the first body served", key[:12])
	}
	return nil
}

// rederive recomputes a sample of results with mc.Estimate, outside the
// daemon, and requires byte equality with what was served.
func (c *checker) rederive(outs []outcome, seed int64) int {
	var done []outcome
	for _, o := range outs {
		if o.ok() {
			done = append(done, o)
		}
	}
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(len(done), func(a, b int) { done[a], done[b] = done[b], done[a] })
	if len(done) > rederiveSample {
		done = done[:rederiveSample]
	}
	for _, o := range done {
		canon, err := o.spec.Canonicalize()
		if err != nil {
			c.fail(err)
			continue
		}
		body, err := rederive(canon)
		if err != nil {
			c.fail(fmt.Errorf("re-deriving %s: %w", o.st.Key[:12], err))
			continue
		}
		if !bytes.Equal(body, o.st.Result) {
			c.fail(fmt.Errorf("key %s: served body differs from mc.Estimate's", o.st.Key[:12]))
		}
	}
	return len(done)
}

// exact checks every fault-free, fixed-run Protocol S result against
// core.Analyze: the exact Pr[TA|R] and Pr[PA|R] must lie inside the
// estimates' Wilson intervals at the z that spends falseAlarmBudget
// over all the intervals checked. It returns the intervals checked.
func (c *checker) exact(outs []outcome) int {
	type item struct {
		res  *mc.Result
		an   *core.RunAnalysis
		spec string
	}
	memo := make(map[string]*core.RunAnalysis)
	var items []item
	for _, o := range outs {
		if !o.ok() {
			continue
		}
		canon, err := o.spec.Canonicalize()
		if err != nil || canon.Sampler != "" || canon.Fault != "" {
			continue
		}
		id := canon.Protocol + "|" + canon.Graph + "|" + canon.Run + "|" + strconv.Itoa(canon.Rounds) + "|" + canon.Inputs
		an, ok := memo[id]
		if !ok {
			an, err = analyze(canon)
			if err != nil {
				c.fail(err)
				continue
			}
			memo[id] = an
		}
		if an == nil {
			continue // not Protocol S
		}
		var body struct {
			Result *mc.Result `json:"result"`
		}
		if err := json.Unmarshal(o.st.Result, &body); err != nil || body.Result == nil {
			c.fail(fmt.Errorf("key %s: undecodable mc body", o.st.Key[:12]))
			continue
		}
		items = append(items, item{res: body.Result, an: an, spec: id})
	}
	checks := 2 * len(items)
	if checks == 0 {
		return 0
	}
	z := math.Sqrt2 * math.Erfcinv(falseAlarmBudget/float64(checks))
	for _, it := range items {
		if !inside(it.res.TA, z, it.an.PTotal) {
			c.fail(fmt.Errorf("%s: Pr[TA|R]=%.6f outside Wilson(z=%.2f) of %d/%d", it.spec, it.an.PTotal, z, it.res.TA.Hits, it.res.TA.Trials))
		}
		if !inside(it.res.PA, z, it.an.PPartial) {
			c.fail(fmt.Errorf("%s: Pr[PA|R]=%.6f outside Wilson(z=%.2f) of %d/%d", it.spec, it.an.PPartial, z, it.res.PA.Hits, it.res.PA.Trials))
		}
	}
	return checks
}

func inside(p stats.Proportion, z, exact float64) bool {
	const slack = 1e-9 // Wilson bounds at p̂ ∈ {0, 1} land on 0 or 1 up to rounding
	lo, hi := p.Wilson(z)
	return exact >= lo-slack && exact <= hi+slack
}

// analyze is core.Analyze on a canonical spec's fixed run; nil for a
// protocol other than S.
func analyze(c service.JobSpec) (*core.RunAnalysis, error) {
	cfg, err := mcConfig(c)
	if err != nil {
		return nil, err
	}
	s, ok := cfg.Protocol.(*core.S)
	if !ok {
		return nil, nil
	}
	return s.Analyze(cfg.Graph, cfg.Run)
}

// mcConfig rebuilds the mc.Config a canonical mc spec denotes from the
// public spec parsers, independently of the daemon's own code.
func mcConfig(c service.JobSpec) (mc.Config, error) {
	if c.Engine != service.EngineMC || c.Precision != nil {
		return mc.Config{}, fmt.Errorf("perfbench: only fixed-count mc specs are re-derived")
	}
	p, err := cliutil.ParseProtocol(c.Protocol)
	if err != nil {
		return mc.Config{}, err
	}
	g, err := cliutil.ParseGraph(c.Graph, c.Seed)
	if err != nil {
		return mc.Config{}, err
	}
	inputs, err := cliutil.ParseInputs(c.Inputs, g)
	if err != nil {
		return mc.Config{}, err
	}
	cfg := mc.Config{Protocol: p, Graph: g, Trials: c.Trials, Seed: c.Seed, MaxFailures: c.MaxFailures}
	if c.Sampler != "" {
		pLoss, ok := strings.CutPrefix(c.Sampler, "loss:")
		loss, err := strconv.ParseFloat(pLoss, 64)
		if !ok || err != nil {
			return mc.Config{}, fmt.Errorf("perfbench: unsupported sampler %q", c.Sampler)
		}
		rounds := c.Rounds
		cfg.Sampler = func(trial uint64, tape *rng.Tape) (*run.Run, error) {
			return run.RandomLoss(g, rounds, loss, tape, inputs...)
		}
	} else if cfg.Run, err = cliutil.ParseRun(c.Run, g, c.Rounds, inputs, c.Seed); err != nil {
		return mc.Config{}, err
	}
	if c.Fault != "" {
		pf, ok := strings.CutPrefix(c.Fault, "rand:")
		pFault, err := strconv.ParseFloat(pf, 64)
		if !ok || err != nil {
			return mc.Config{}, fmt.Errorf("perfbench: unsupported fault %q", c.Fault)
		}
		plan, err := fault.Sample(c.Seed, 0, g, c.Rounds, fault.SampleConfig{PFault: pFault})
		if err != nil {
			return mc.Config{}, err
		}
		cfg.Protocol = fault.Inject(p, plan)
	}
	return cfg, nil
}

// mcBody mirrors the daemon's mc result body, whose field names are API.
type mcBody struct {
	Result     *mc.Result     `json:"result"`
	TAWilson95 stats.Interval `json:"ta_wilson95"`
	PAWilson95 stats.Interval `json:"pa_wilson95"`
	NAWilson95 stats.Interval `json:"na_wilson95"`
	Partial    bool           `json:"partial,omitempty"`
	Error      string         `json:"error,omitempty"`
}

// rederive computes a canonical spec's result body with mc.Estimate.
func rederive(c service.JobSpec) ([]byte, error) {
	cfg, err := mcConfig(c)
	if err != nil {
		return nil, err
	}
	res, err := mc.Estimate(cfg)
	if err != nil {
		return nil, err
	}
	const z95 = 1.959963984540054
	return json.Marshal(mcBody{
		Result:     res,
		TAWilson95: res.TA.WilsonInterval(z95),
		PAWilson95: res.PA.WilsonInterval(z95),
		NAWilson95: res.NA.WilsonInterval(z95),
	})
}

// referencePath reports whether the spec's trials run on mc's reference
// (allocating) path: its protocol, after fault injection, has no fast
// engine.
func referencePath(c service.JobSpec) bool {
	cfg, err := mcConfig(c)
	if err != nil {
		return false
	}
	_, err = sim.NewEngine(cfg.Protocol, cfg.Graph, 1)
	return err != nil
}
