package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// flipHandler is an http.Handler whose status code can be swapped at
// runtime: the test's stand-in for a peer that dies and recovers.
type flipHandler struct {
	status atomic.Int64
}

func (h *flipHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(int(h.status.Load()))
}

func TestPeerHealthStateMachine(t *testing.T) {
	h := &flipHandler{}
	h.status.Store(http.StatusOK)
	srv := httptest.NewServer(h)
	defer srv.Close()
	c, err := New(Options{
		Self:             "http://self.invalid:1",
		Peers:            []string{srv.URL},
		BreakerThreshold: 3,
		BreakerCooldown:  time.Hour, // breakers must recover via ping, not cooldown
	})
	if err != nil {
		t.Fatal(err)
	}
	addr := NormalizeAddr(srv.URL)
	if got := c.PeerHealth(addr); got != "" {
		t.Fatalf("health before any probe = %q, want unknown", got)
	}
	if c.PeerDown(addr) {
		t.Fatal("unknown health must not count as down")
	}

	ctx := context.Background()
	became, err := c.Ping(ctx, addr)
	if err != nil || !became {
		t.Fatalf("first ping: became=%v err=%v, want transition to alive", became, err)
	}
	if got := c.PeerHealth(addr); got != HealthAlive {
		t.Fatalf("health after ping = %q", got)
	}
	if became, _ = c.Ping(ctx, addr); became {
		t.Fatal("second successful ping reported a transition")
	}

	// The peer starts answering 503: a corpse with a listener. One miss
	// is suspicion; the threshold (3) is death.
	h.status.Store(http.StatusServiceUnavailable)
	if _, err := c.Ping(ctx, addr); err == nil {
		t.Fatal("ping against 503 succeeded")
	}
	if got := c.PeerHealth(addr); got != HealthSuspect {
		t.Fatalf("health after one miss = %q, want suspect", got)
	}
	if c.PeerDown(addr) {
		t.Fatal("suspect peer reported down")
	}
	c.Ping(ctx, addr)
	c.Ping(ctx, addr)
	if got := c.PeerHealth(addr); got != HealthDead {
		t.Fatalf("health after threshold misses = %q, want dead", got)
	}
	if !c.PeerDown(addr) {
		t.Fatal("dead peer not reported down")
	}
	// Three ping failures also opened the breaker (threshold 3).
	if snap := c.Snapshot(); snap.Peers[0].Breaker != StateOpen {
		t.Fatalf("breaker after ping misses = %s, want open", snap.Peers[0].Breaker)
	}

	// Recovery: the next successful ping flips health to alive AND
	// closes the breaker proactively — no half-open request sacrifice,
	// and the hour-long cooldown never elapses.
	h.status.Store(http.StatusOK)
	became, err = c.Ping(ctx, addr)
	if err != nil || !became {
		t.Fatalf("recovery ping: became=%v err=%v", became, err)
	}
	if c.PeerDown(addr) {
		t.Fatal("recovered peer still reported down")
	}
	snap := c.Snapshot()
	if snap.Peers[0].Breaker != StateClosed {
		t.Fatalf("breaker after recovery ping = %s, want closed", snap.Peers[0].Breaker)
	}
	if snap.Peers[0].Health != HealthAlive || snap.Peers[0].LastSeenUnix == 0 {
		t.Fatalf("snapshot health = %+v", snap.Peers[0])
	}
}

func TestPeerPing404IsAlive(t *testing.T) {
	// An older coordd build has no ping route and answers 404; the
	// process is plainly alive and must not be declared dead.
	srv := httptest.NewServer(http.NotFoundHandler())
	defer srv.Close()
	c, err := New(Options{Self: "http://self.invalid:1", Peers: []string{srv.URL}})
	if err != nil {
		t.Fatal(err)
	}
	became, err := c.Ping(context.Background(), srv.URL)
	if err != nil || !became {
		t.Fatalf("ping against 404: became=%v err=%v", became, err)
	}
	if got := c.PeerHealth(srv.URL); got != HealthAlive {
		t.Fatalf("health = %q, want alive", got)
	}
}

func TestPeerDetectorLoopAndOnAlive(t *testing.T) {
	h := &flipHandler{}
	h.status.Store(http.StatusServiceUnavailable)
	srv := httptest.NewServer(h)
	defer srv.Close()
	c, err := New(Options{
		Self:            "http://self.invalid:1",
		Peers:           []string{srv.URL},
		BreakerCooldown: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr := NormalizeAddr(srv.URL)

	var mu sync.Mutex
	var transitions []string
	c.StartDetector(DetectorOptions{
		Interval: 10 * time.Millisecond,
		Misses:   2,
		OnAlive: func(a string, became bool) {
			if became {
				mu.Lock()
				transitions = append(transitions, a)
				mu.Unlock()
			}
		},
	})
	// Double-start is a no-op, and the loop drives the peer dead.
	c.StartDetector(DetectorOptions{Interval: time.Millisecond})
	deadline := time.Now().Add(5 * time.Second)
	for c.PeerHealth(addr) != HealthDead {
		if time.Now().After(deadline) {
			t.Fatal("detector never marked the 503 peer dead")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Heal the peer: the loop notices within a few intervals and fires
	// the dead→alive transition callback exactly once.
	h.status.Store(http.StatusOK)
	for c.PeerHealth(addr) != HealthAlive {
		if time.Now().After(deadline) {
			t.Fatal("detector never revived the healed peer")
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	got := len(transitions)
	mu.Unlock()
	if got != 1 || transitions[0] != addr {
		t.Fatalf("alive transitions = %v, want exactly one for %s", transitions, addr)
	}

	// StopDetector is synchronous: after it returns, no further state
	// changes happen even if the peer flips again.
	c.StopDetector()
	c.StopDetector() // idempotent
	h.status.Store(http.StatusServiceUnavailable)
	time.Sleep(50 * time.Millisecond)
	if got := c.PeerHealth(addr); got != HealthAlive {
		t.Fatalf("health changed after StopDetector: %q", got)
	}
}

// TestDefaultBreakerThresholdToleratesBootPing pins Options' documented
// default (BreakerThreshold 0 means 3), which coordd relies on: the
// failed pings a node sends to a peer that is still booting must not
// open that peer's breaker.
func TestDefaultBreakerThresholdToleratesBootPing(t *testing.T) {
	h := &flipHandler{}
	h.status.Store(http.StatusServiceUnavailable)
	srv := httptest.NewServer(h)
	defer srv.Close()
	c, err := New(Options{Self: "http://self.invalid:1", Peers: []string{srv.URL}})
	if err != nil {
		t.Fatal(err)
	}
	addr := NormalizeAddr(srv.URL)
	for i := 1; i <= 3; i++ {
		if _, err := c.Ping(context.Background(), addr); err == nil {
			t.Fatalf("ping %d to a 503 peer succeeded", i)
		}
		want := StateClosed
		if i == 3 {
			want = StateOpen
		}
		if got := c.Snapshot().Peers[0].Breaker; got != want {
			t.Fatalf("breaker after %d failed pings = %s, want %s", i, got, want)
		}
	}
}
