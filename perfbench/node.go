package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"coordattack/internal/cluster"
	"coordattack/internal/hints"
	"coordattack/internal/queue"
	"coordattack/internal/service"
	"coordattack/internal/store"
)

// The daemon settings every node runs with: cmd/coordd's flag defaults.
// The benchmark measures the daemon as shipped, so none is tuned here.
const (
	coorddWorkers     = 2
	coorddQueue       = 64
	coorddCache       = 1024
	coorddJobTimeout  = 5 * time.Minute
	coorddStoreMax    = 1 << 30
	coorddStoreProbe  = 10 * time.Second
	coorddSweepKeep   = 256
	coorddJobKeep     = 4096
	coorddWatchdog    = 5 * time.Second
	coorddWdGrace     = 30 * time.Second
	coorddPeerTimeout = 500 * time.Millisecond
	coorddSteal       = time.Second
	coorddReplicas    = 2
	coorddRepair      = 5 * time.Second
	coorddProbe       = time.Second
	coorddProbeMisses = 3
	coorddHintMax     = 64 << 20
)

// node is one coordd instance served on a real loopback listener, wired
// the way cmd/coordd wires it with -store-dir and -queue-dir set.
type node struct {
	addr string // host:port, also the node's cluster identity
	srv  *service.Server
	st   *store.Store
	jl   *queue.Journal
	hl   *hints.Log
	cl   *cluster.Cluster
	hs   *http.Server
	done chan struct{}
	fs   []*tracedFS // the traced run's filesystem wrappers, one per directory
}

// base is the node's URL prefix.
func (n *node) base() string { return "http://" + n.addr }

var nodeLog = log.New(os.Stderr, "perfbench: node: ", log.LstdFlags)

// listen binds count loopback listeners. Cluster nodes need every
// address before any node is built, since each names all of them.
func listen(count int) ([]net.Listener, error) {
	var lns []net.Listener
	for i := 0; i < count; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return nil, fmt.Errorf("listen: %w", err)
		}
		lns = append(lns, ln)
	}
	return lns, nil
}

// bootNodes starts one node per listener under dir. With more than one
// listener the nodes form a static cluster over all of them. A non-nil
// tracer installs the trace wrappers at the daemon's public seams.
func bootNodes(dir string, lns []net.Listener, tr *tracer) ([]*node, error) {
	var peers []string
	if len(lns) > 1 {
		for _, ln := range lns {
			peers = append(peers, ln.Addr().String())
		}
	}
	var nodes []*node
	for i, ln := range lns {
		n, err := bootNode(filepath.Join(dir, fmt.Sprintf("node%d", i)), ln, peers, tr)
		if err != nil {
			closeNodes(nodes)
			for _, l := range lns[i+1:] {
				l.Close()
			}
			return nil, err
		}
		nodes = append(nodes, n)
	}
	return nodes, nil
}

func bootNode(dir string, ln net.Listener, peers []string, tr *tracer) (*node, error) {
	n := &node{addr: ln.Addr().String(), done: make(chan struct{})}
	wrapFS := func(layer string) store.FS {
		if tr == nil {
			return nil
		}
		f := newTracedFS(tr, layer)
		n.fs = append(n.fs, f)
		return f
	}
	fail := func(err error) (*node, error) {
		ln.Close()
		n.closeStorage()
		return nil, err
	}
	var err error
	n.st, err = store.Open(filepath.Join(dir, "store"), store.Options{
		MaxBytes:      coorddStoreMax,
		Logf:          nodeLog.Printf,
		ProbeInterval: coorddStoreProbe,
		FS:            wrapFS("store"),
	})
	if err != nil {
		return fail(err)
	}
	queueDir := filepath.Join(dir, "queue")
	n.jl, err = queue.OpenJournal(queueDir, queue.JournalOptions{Logf: nodeLog.Printf, FS: wrapFS("queue")})
	if err != nil {
		return fail(err)
	}
	if len(peers) > 0 {
		opts := cluster.Options{
			Self:    n.addr,
			Peers:   peers,
			Factor:  coorddReplicas,
			Timeout: coorddPeerTimeout,
			Logf:    nodeLog.Printf,
		}
		if tr != nil {
			opts.Transport = &tracedTransport{next: http.DefaultTransport, t: tr}
		}
		if n.cl, err = cluster.New(opts); err != nil {
			return fail(err)
		}
		n.hl, err = hints.Open(filepath.Join(queueDir, "hints"), hints.Options{
			Logf:     nodeLog.Printf,
			MaxBytes: coorddHintMax,
			FS:       wrapFS("hints"),
		})
		if err != nil {
			return fail(err)
		}
	}
	cfg := service.Config{
		Workers:           coorddWorkers,
		QueueDepth:        coorddQueue,
		InteractiveWeight: 1,
		CacheSize:         coorddCache,
		JobTimeout:        coorddJobTimeout,
		Store:             n.st,
		Journal:           n.jl,
		SweepRetention:    coorddSweepKeep,
		JobRetention:      coorddJobKeep,
		WatchdogInterval:  coorddWatchdog,
		WatchdogGrace:     coorddWdGrace,
		Cluster:           n.cl,
		StealInterval:     coorddSteal,
		RepairInterval:    coorddRepair,
		Hints:             n.hl,
		ProbeInterval:     coorddProbe,
		ProbeMisses:       coorddProbeMisses,
	}
	if tr != nil {
		cfg.WrapEngine = tr.wrapEngine
	}
	n.srv = service.New(cfg)
	var h http.Handler = n.srv.Handler()
	if tr != nil {
		h = &tracedHandler{next: h, t: tr}
	}
	n.hs = &http.Server{Handler: h}
	go func() {
		defer close(n.done)
		_ = n.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return n, nil
}

// close drains the node the way coordd does on SIGTERM and releases
// its files. It returns once the serving goroutine has exited.
func (n *node) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = n.srv.Drain(ctx) // past the deadline Drain cancels in-flight jobs and still waits for them
	if err := n.hs.Shutdown(ctx); err != nil {
		_ = n.hs.Close()
	}
	<-n.done
	n.closeStorage()
}

func (n *node) closeStorage() {
	if n.hl != nil {
		n.hl.Close()
	}
	if n.jl != nil {
		n.jl.Close()
	}
	if n.st != nil {
		n.st.Close()
	}
}

func closeNodes(nodes []*node) {
	for _, n := range nodes {
		n.close()
	}
}
