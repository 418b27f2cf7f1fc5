package rng

// This file is the batched-tape layer behind the zero-alloc trial
// engines. A Stream maps (trial, proc) labels to independent tapes; the
// reference path materializes a fresh Tape per label, which costs one
// allocation per process per trial. The fast path instead:
//
//   - precomputes the tape *seeds* for one page of consecutive trials in
//     a single pass (SeedPage) — the per-proc and per-trial Mix64 halves
//     of the seed formula are each computed once per page row/column
//     instead of once per (trial, proc) pair, and
//   - reuses one Tape value per process (Bank), reseeding it in place
//     from the page at the start of every trial.
//
// The seeds — and therefore every random bit drawn — are identical to
// what Stream.Tape would hand out; page_test.go pins that bit-for-bit.
// Batching changes only where the allocations happen: one page + one
// bank per worker, amortized over every trial the worker runs.

// tapeSeed is the (trial, proc) → seed formula shared by Stream.Tape and
// SeedPage. Any change here is a break in reproducibility and will trip
// the differential suite.
func (s Stream) tapeSeed(trial, proc uint64) uint64 {
	return Mix64(s.seed ^ Mix64(trial+0x1234)*0x9e3779b97f4a7c15 ^ Mix64(proc+0xabcd))
}

// Reseed points an existing tape at the (trial, proc) stream of s — the
// allocation-free equivalent of t = s.Tape(trial, proc).
func (s Stream) Reseed(t *Tape, trial, proc uint64) {
	t.Reseed(s.tapeSeed(trial, proc))
}

// SeedPage caches the per-(trial, proc) tape seeds for a contiguous
// block of trials, generated in one pass. Fill one page, slice many
// trials from it: a Monte-Carlo worker fills the page covering its next
// block and reseeds its tape bank row by row. The zero value is an empty
// page; Ensure fills it on demand. A SeedPage is not safe for concurrent
// use — each worker owns one.
type SeedPage struct {
	stream Stream
	lo, hi uint64 // covered trial range [lo, hi)
	procs  int    // seeds cover procs 0..procs per trial
	seeds  []uint64
	filled bool
}

// DefaultPageTrials is the page length Ensure uses: large enough to
// amortize the per-page fill, small enough that a worker striding
// through a shared trial range wastes little.
const DefaultPageTrials = 256

// Fill populates the page with the seeds for trials [lo, hi) × procs
// 0..procs of stream s, reusing the backing array when it is large
// enough. Requires hi > lo and procs ≥ 0.
func (p *SeedPage) Fill(s Stream, lo, hi uint64, procs int) {
	if hi <= lo || procs < 0 {
		p.filled = false
		return
	}
	width := procs + 1
	need := int(hi-lo) * width
	if cap(p.seeds) < need {
		p.seeds = make([]uint64, need)
	}
	p.seeds = p.seeds[:need]
	p.stream, p.lo, p.hi, p.procs, p.filled = s, lo, hi, procs, true
	// One Mix64 per column, one per row, one per cell — versus three per
	// cell on the unbatched path.
	for proc := 0; proc <= procs; proc++ {
		pm := Mix64(uint64(proc) + 0xabcd)
		row := p.seeds[proc:]
		for trial := lo; trial < hi; trial++ {
			tm := Mix64(trial+0x1234) * 0x9e3779b97f4a7c15
			row[int(trial-lo)*width] = Mix64(s.seed ^ tm ^ pm)
		}
	}
}

// Ensure makes the page cover trial for stream s, refilling with a
// DefaultPageTrials-long block starting at trial when it does not.
func (p *SeedPage) Ensure(s Stream, trial uint64, procs int) {
	if p.filled && p.stream == s && p.procs >= procs && trial >= p.lo && trial < p.hi {
		return
	}
	p.Fill(s, trial, trial+DefaultPageTrials, procs)
}

// Seed returns the cached seed for (trial, proc). The caller must have
// Ensured coverage; out-of-range lookups fall back to computing the seed
// directly so the answer is always right.
func (p *SeedPage) Seed(trial, proc uint64) uint64 {
	if !p.filled || trial < p.lo || trial >= p.hi || int(proc) > p.procs {
		return p.stream.tapeSeed(trial, proc)
	}
	return p.seeds[int(trial-p.lo)*(p.procs+1)+int(proc)]
}

// Bank is a fixed family of per-process tapes reseeded in place once per
// trial — the arena backing α_1..α_m in the fast engine. Index 0 is the
// run-sampler tape slot by mc convention. A Bank is not safe for
// concurrent use; each worker owns one.
type Bank struct {
	tapes []Tape
}

// NewBank returns a bank with tape slots 0..procs.
func NewBank(procs int) *Bank {
	return &Bank{tapes: make([]Tape, procs+1)}
}

// Procs reports the highest tape slot.
func (b *Bank) Procs() int { return len(b.tapes) - 1 }

// Grow ensures the bank has slots 0..procs.
func (b *Bank) Grow(procs int) {
	if procs+1 > len(b.tapes) {
		next := make([]Tape, procs+1)
		copy(next, b.tapes)
		b.tapes = next
	}
}

// Tape returns the tape in slot proc. The pointer stays valid until the
// next Grow.
func (b *Bank) Tape(proc int) *Tape { return &b.tapes[proc] }

// ReseedFrom reseeds every slot from the page's row for trial, after
// which slot i is bit-identical to stream.Tape(trial, i).
func (b *Bank) ReseedFrom(page *SeedPage, trial uint64) {
	for i := range b.tapes {
		b.tapes[i].Reseed(page.Seed(trial, uint64(i)))
	}
}
