package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"coordattack/internal/service"
)

// request is one generated request: which node gets which spec.
type request struct {
	node  int
	spec  service.JobSpec
	fresh bool // never submitted before: a cold compute
}

// closedLoop runs clients that each send their next request only after
// the previous one settled, until dur has passed. next must be safe to
// call from client goroutines for distinct client indexes. It returns
// every outcome and the time from start until the last one settled.
func closedLoop(ctx context.Context, clients int, dur time.Duration, next func(client int) request, do func(request) outcome) ([]outcome, time.Duration) {
	start := time.Now()
	deadline := start.Add(dur)
	per := make([][]outcome, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				sent := time.Now()
				o := do(next(c))
				o.latency = time.Since(sent)
				per[c] = append(per[c], o)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var outs []outcome
	for _, p := range per {
		outs = append(outs, p...)
	}
	return outs, elapsed
}

// listLoop sends reqs from clients concurrent closed-loop clients, in
// order, until all have settled; for warm-up and prefill. It fails on
// the first failed request.
func listLoop(ctx context.Context, clients int, reqs []request, do func(request) outcome) error {
	var (
		mu   sync.Mutex
		next int
		err  error
		wg   sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				mu.Lock()
				if next == len(reqs) || err != nil {
					mu.Unlock()
					return
				}
				r := reqs[next]
				next++
				mu.Unlock()
				if o := do(r); !o.ok() {
					mu.Lock()
					if err == nil {
						err = o.err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if err != nil {
		return err
	}
	return ctx.Err()
}

// openResult is one open-loop window.
type openResult struct {
	outs     []outcome
	elapsed  time.Duration // first due time until the last request settled
	lateness latencies     // how late each request left against its due time
	dropped  int           // requests not sent because maxInFlight were pending
	backlog  int           // requests still pending when the last one was due
}

// openLoop sends requests on a fixed schedule at rate per second for
// dur, whether or not earlier ones have settled. Latency runs from each
// request's due time, so a stall also charges the requests it delays.
// At most maxInFlight requests are pending; a request due beyond that is
// dropped and fails.
func openLoop(ctx context.Context, rate float64, dur time.Duration, maxInFlight int, next func(i int) request, do func(request) outcome) openResult {
	total := int(rate * dur.Seconds())
	interval := time.Duration(float64(time.Second) / rate)
	res := openResult{outs: make([]outcome, 0, total), lateness: make(latencies, 0, total)}
	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		inFlight int
	)
	start := time.Now()
	for i := 0; i < total && ctx.Err() == nil; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		req := next(i)
		mu.Lock()
		if inFlight >= maxInFlight {
			res.dropped++
			res.outs = append(res.outs, outcome{spec: req.spec, err: fmt.Errorf("open loop: %d requests pending, request dropped", inFlight), latency: time.Since(due)})
			mu.Unlock()
			continue
		}
		inFlight++
		mu.Unlock()
		wg.Add(1)
		go func(req request, due time.Time) {
			defer wg.Done()
			late := time.Since(due)
			o := do(req)
			o.latency = time.Since(due)
			mu.Lock()
			inFlight--
			res.outs = append(res.outs, o)
			res.lateness = append(res.lateness, late)
			mu.Unlock()
		}(req, due)
	}
	mu.Lock()
	res.backlog = inFlight
	mu.Unlock()
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}
