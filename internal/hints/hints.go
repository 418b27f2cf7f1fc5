// Package hints is the durable hinted-handoff log behind the cluster's
// active-healing layer: when a replica push fails because the target
// peer is down, the sender queues a hint — "peer P is owed key K" —
// instead of waiting for the next anti-entropy pass, and the peer
// failure detector drains the hints the moment the peer answers a probe
// again.
//
// Hints are tiny on purpose. Results are content-addressed and already
// durable in the sender's local store, so a hint carries only the
// (peer, key) pair; delivery re-reads the body from the store. Losing a
// hint is therefore never a correctness loss — the anti-entropy repair
// loop remains the backstop — which is why the log can shed oldest
// hints under a byte cap rather than refuse writes.
//
// The log is an internal/wal log keyed by (peer, key), with
// "coordd-hints/v1" as its line version: checksummed record lines in
// sequence-numbered segments, torn-line-tolerant replay,
// compact-on-open, and degrade-to-memory-only on any write error.
package hints

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"coordattack/internal/store"
	"coordattack/internal/wal"
)

// logVersion prefixes every record line. Unrecognized versions are
// skipped on replay, never misparsed.
const logVersion = "coordd-hints/v1"

// Record ops.
const (
	// OpAdd queues one hint: peer is owed key.
	OpAdd = "add"
	// OpDone tombstones a hint: delivered, or shed under the byte cap.
	OpDone = "done"
)

// Record is one hint-log entry.
type Record struct {
	Op   string `json:"op"`
	Peer string `json:"peer"`
	Key  string `json:"key"`
	// At is the queue wall-clock in unix nanoseconds, preserved across
	// replay so hint-age observations survive a restart.
	At int64 `json:"at,omitempty"`
}

// Options tunes Open.
type Options struct {
	// FS overrides the filesystem; nil means the real disk. Chaos
	// harnesses inject faults here.
	FS store.FS
	// Logf receives one line per degradation, truncation, shed, and
	// compaction event; nil discards them.
	Logf func(format string, args ...any)
	// MaxBytes caps the encoded size of the pending hint set; once an
	// Add would exceed it the oldest pending hints are shed (tombstoned
	// and counted in Stats.Dropped) until the new hint fits. <= 0 means
	// unlimited.
	MaxBytes int64
}

// Stats is a point-in-time snapshot for /metrics and the admin surface.
type Stats struct {
	// Pending is the current queued-hint count across all peers.
	Pending int `json:"pending"`
	// Peers is how many distinct peers have pending hints.
	Peers int `json:"peers"`
	// Adds counts hints ever queued (dedup suppresses re-adds of an
	// already-pending pair); Delivered counts hints cleared by delivery;
	// Dropped counts hints shed under MaxBytes.
	Adds      int64 `json:"adds"`
	Delivered int64 `json:"delivered"`
	Dropped   int64 `json:"dropped"`
	// Replayed is how many pending hints the log recovered at open.
	Replayed int `json:"replayed"`
	// Truncated counts undecodable lines skipped on replay.
	Truncated int64 `json:"truncated"`
	// Degraded is true once a write error demoted the log to
	// memory-only.
	Degraded bool `json:"degraded"`
}

// pair is a hint's identity in the log.
type pair struct{ peer, key string }

// hintsCodec is the hint log's WAL dialect: records keyed by (peer,
// key), done records the tombstones.
var hintsCodec = wal.Codec[pair, Record]{
	Version:   logVersion,
	Name:      "hints: log",
	Key:       func(r *Record) pair { return pair{r.Peer, r.Key} },
	Tombstone: func(r *Record) bool { return r.Op == OpDone },
	Validate: func(r *Record) error {
		if r.Peer == "" || r.Key == "" || (r.Op != OpAdd && r.Op != OpDone) {
			return fmt.Errorf("invalid record op %q", r.Op)
		}
		return nil
	},
}

// Log is the hinted-handoff queue. Safe for concurrent use; every
// append is fsynced before it returns. A Log opened with an empty dir
// is memory-only: same API, no durability.
type Log struct {
	maxBytes int64
	logf     func(format string, args ...any)

	mu      sync.Mutex
	log     *wal.Log[pair, Record] // live set = pending add records, oldest first
	perPeer map[string]int         // peer → pending hint count

	adds, delivered, dropped int64
}

// Open opens (or creates) the hint log at dir, replays its segments,
// and compacts them into a fresh one. An empty dir yields a memory-only
// log that never touches the filesystem.
func Open(dir string, opts Options) (*Log, error) {
	log, err := wal.Open(dir, opts.FS, opts.Logf, hintsCodec)
	if err != nil {
		return nil, fmt.Errorf("hints: %w", err)
	}
	l := &Log{maxBytes: opts.MaxBytes, logf: opts.Logf, log: log, perPeer: make(map[string]int)}
	log.Each(func(r *Record) { l.perPeer[r.Peer]++ })
	return l, nil
}

// Add queues one hint: peer is owed key's body. Re-adding an already
// pending pair is a free no-op — delivery is idempotent anyway, but the
// log stays minimal. When MaxBytes is set and exceeded, the oldest
// pending hints are shed (tombstoned and counted as dropped) until the
// new hint fits; the newest hint is always kept.
func (l *Log) Add(peer, key string) error {
	now := time.Now().UnixNano()
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.log.Get(pair{peer, key}); ok {
		return nil
	}
	l.adds++
	l.perPeer[peer]++
	err := l.log.Append(&Record{Op: OpAdd, Peer: peer, Key: key, At: now})
	// Shed oldest-first past the cap. Shedding appends tombstones (so a
	// replayed log agrees), but never sheds the hint just added: it is
	// the newest, so while another hint is pending the oldest is not it.
	for l.maxBytes > 0 && l.log.Bytes() > l.maxBytes && l.log.Len() > 1 {
		oldest, _ := l.log.Oldest()
		l.dropped++
		if l.logf != nil {
			l.logf("hints: shed oldest hint (%s ← %.8s) over the %d-byte cap", oldest.Peer, oldest.Key, l.maxBytes)
		}
		_ = l.doneLocked(oldest.Peer, oldest.Key)
	}
	return err
}

// Delivered tombstones one hint after a successful push (or after the
// body vanished locally and the hint became undeliverable). Clearing a
// pair that is not pending is a no-op.
func (l *Log) Delivered(peer, key string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.log.Get(pair{peer, key}); !ok {
		return nil
	}
	l.delivered++
	return l.doneLocked(peer, key)
}

// doneLocked tombstones one pending hint.
func (l *Log) doneLocked(peer, key string) error {
	l.perPeer[peer]--
	if l.perPeer[peer] == 0 {
		delete(l.perPeer, peer)
	}
	return l.log.Append(&Record{Op: OpDone, Peer: peer, Key: key})
}

// Pending returns peer's queued keys, oldest first.
func (l *Log) Pending(peer string) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := l.perPeer[peer]
	if n == 0 {
		return nil
	}
	out := make([]string, 0, n)
	l.log.Each(func(r *Record) {
		if r.Peer == peer {
			out = append(out, r.Key)
		}
	})
	return out
}

// PendingFor reports how many hints are queued for peer.
func (l *Log) PendingFor(peer string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.perPeer[peer]
}

// Peers returns the peers with pending hints, sorted.
func (l *Log) Peers() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]string, 0, len(l.perPeer))
	for peer := range l.perPeer {
		out = append(out, peer)
	}
	sort.Strings(out)
	return out
}

// Stats snapshots the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	ws := l.log.Stats()
	return Stats{
		Pending:   l.log.Len(),
		Peers:     len(l.perPeer),
		Adds:      l.adds,
		Delivered: l.delivered,
		Dropped:   l.dropped,
		Replayed:  ws.Replayed,
		Truncated: ws.Truncated,
		Degraded:  ws.Degraded,
	}
}

// Degraded reports whether a write error demoted the log.
func (l *Log) Degraded() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.log.Stats().Degraded
}

// Close closes the active segment handle. Hints already appended stay
// durable; a closed log refuses nothing — further appends simply demote
// it (the daemon is exiting anyway).
func (l *Log) Close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.log.Close()
}
