// Package wal is the segmented, checksummed write-ahead log behind
// coordd's two crash-safe logs: the pending-queue journal
// (internal/queue) and the hinted-handoff log (internal/hints). It owns
// the on-disk format, replay, compaction and the degrade discipline;
// the typed wrappers own only their record type, its validation, its
// identity and their own semantics.
//
// Line format, one record per line:
//
//	<version> <sha256-hex over the JSON body> <compact JSON body>\n
//
// The checksum binds each line independently, so replay survives a torn
// tail (a crash mid-append) and even a torn middle (a chaos-injected
// short write that later appends merge into): undecodable lines are
// counted and skipped, checksummed lines are trusted. Segments are named
// %08d.wal and created crash-safely with the store's discipline — temp
// file, fsync, rename, directory fsync — through store.FS, so
// internal/chaos injects EIO/ENOSPC/torn-write faults into both logs
// exactly as it does into the result store.
//
// A log holds a live set: the records replay (and later appends) left
// standing, in first-insertion order. Every non-tombstone record puts
// its identity into the set (replacing the value in place), every
// tombstone removes it. Open replays the segments and compacts them into
// one fresh segment holding only the live set; a live compaction re-runs
// every CompactEvery tombstones, so the log is bounded by its backlog,
// not its history.
//
// A log degrades instead of failing its caller: the first write error
// demotes it to memory-only (logged once), after which appends only
// update the live set until restart. A segment that cannot be read at
// open also starts the log degraded, and then no segment is deleted, so
// a later healthy open still replays it. A log opened with an empty dir
// is memory-only from birth and never touches the filesystem.
package wal

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"coordattack/internal/store"
)

// CompactEvery is the tombstone count since the last compaction that
// triggers a live compaction.
const CompactEvery = 1024

// Codec is a log's record dialect.
type Codec[K comparable, R any] struct {
	// Version prefixes every line. Lines with another prefix are skipped
	// on replay (counted as truncated), never misparsed.
	Version string
	// Name prefixes the log's diagnostic lines, e.g. "queue: journal".
	Name string
	// Key is a record's identity in the live set.
	Key func(*R) K
	// Tombstone reports whether a record removes its identity from the
	// live set rather than putting it.
	Tombstone func(*R) bool
	// Validate rejects a checksummed record that is still malformed; a
	// rejected line is counted as truncated and skipped.
	Validate func(*R) error
}

// Stats is a point-in-time snapshot of the mechanism's counters.
type Stats struct {
	// Replayed is the live-set size right after open.
	Replayed int
	// Truncated counts undecodable lines skipped on replay.
	Truncated int64
	// Compactions counts rewrites of the live set, at open and live.
	Compactions int64
	// Degraded is true once a write error (or an unreadable segment at
	// open) demoted the log to memory-only.
	Degraded bool
}

type entry[R any] struct {
	rec  R
	size int64 // encoded line length, newline included
}

// Log is one write-ahead log and its live set. It is not safe for
// concurrent use: the typed wrappers serialize access under their own
// mutex, since their operations span several Log calls. Every durable
// append is fsynced before it returns.
type Log[K comparable, R any] struct {
	dir   string // "" = memory-only
	fs    store.FS
	logf  func(format string, args ...any)
	codec Codec[K, R]

	active       store.File
	seq          uint64     // sequence number of the active segment
	order        *list.List // live entries, oldest first
	live         map[K]*list.Element
	bytes        int64 // encoded size of the live set
	tombstones   int   // since the last compaction
	compactEvery int
	degraded     bool

	replayed               int
	truncated, compactions int64
}

// Open opens (or creates) the log at dir, replays its segments into the
// live set, and compacts them into a fresh segment. An empty dir yields
// a memory-only log; a nil fs means the real disk.
func Open[K comparable, R any](dir string, fs store.FS, logf func(string, ...any), codec Codec[K, R]) (*Log[K, R], error) {
	if fs == nil {
		fs = store.DiskFS()
	}
	l := &Log[K, R]{
		dir:          dir,
		fs:           fs,
		logf:         logf,
		codec:        codec,
		order:        list.New(),
		live:         make(map[K]*list.Element),
		compactEvery: CompactEvery,
	}
	if dir == "" {
		return l, nil
	}
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	segs, readErr, err := l.scan()
	if err != nil {
		return nil, err
	}
	l.replayed = l.order.Len()
	if readErr != nil {
		// Compacting now would write a live set missing the unreadable
		// segment's records and then delete that segment. Keep every
		// segment and stay memory-only; a healthy restart replays all.
		l.degraded = true
		l.log("%s: %v; keeping every segment, memory-only until restart", codec.Name, readErr)
		return l, nil
	}
	// Compact-on-open: rewrite the live set into one fresh segment and
	// drop the old ones. A failure here degrades the log at birth —
	// replay still worked, new appends just are not durable.
	if err := l.compactLocked(); err == nil {
		for _, s := range segs {
			_ = l.fs.Remove(filepath.Join(dir, s))
		}
	}
	return l, nil
}

func (l *Log[K, R]) log(format string, args ...any) {
	if l.logf != nil {
		l.logf(format, args...)
	}
}

// scan replays every segment in order and returns the segment filenames
// it found, plus the first segment read error. Stray temp files from a
// crash mid-compaction are swept.
func (l *Log[K, R]) scan() (segs []string, readErr, err error) {
	entries, err := l.fs.ReadDir(l.dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		if strings.HasPrefix(name, "tmp-") {
			_ = l.fs.Remove(filepath.Join(l.dir, name))
			continue
		}
		if seq, ok := segmentSeq(name); ok {
			segs = append(segs, name)
			l.seq = max(l.seq, seq)
		}
	}
	sort.Slice(segs, func(a, b int) bool {
		sa, _ := segmentSeq(segs[a])
		sb, _ := segmentSeq(segs[b])
		return sa < sb
	})
	for _, name := range segs {
		data, err := l.fs.ReadFile(filepath.Join(l.dir, name))
		if err != nil {
			if readErr == nil {
				readErr = fmt.Errorf("segment %s unreadable: %w", name, err)
			}
			continue
		}
		l.applySegment(name, data)
	}
	return segs, readErr, nil
}

// applySegment replays one segment's lines into the live set.
// Undecodable lines — the torn tail of a crash mid-append, or a chaos-
// injected short write — are counted and skipped; every line that
// checksums and validates is applied.
func (l *Log[K, R]) applySegment(name string, data []byte) {
	for len(data) > 0 {
		var line []byte
		line, data, _ = bytes.Cut(data, []byte{'\n'})
		if len(line) == 0 {
			continue
		}
		rec, err := l.codec.decodeLine(line)
		if err != nil {
			l.truncated++
			l.log("%s %s: dropped undecodable record: %v", l.codec.Name, name, err)
			continue
		}
		l.apply(rec, int64(len(line))+1)
	}
}

// apply puts or removes rec's identity in the live set. A put of a
// present identity replaces its record in place, keeping its position.
func (l *Log[K, R]) apply(rec *R, size int64) {
	k := l.codec.Key(rec)
	el, ok := l.live[k]
	if l.codec.Tombstone(rec) {
		if ok {
			l.bytes -= el.Value.(*entry[R]).size
			l.order.Remove(el)
			delete(l.live, k)
		}
		return
	}
	if ok {
		e := el.Value.(*entry[R])
		l.bytes += size - e.size
		e.rec, e.size = *rec, size
		return
	}
	l.live[k] = l.order.PushBack(&entry[R]{rec: *rec, size: size})
	l.bytes += size
}

// Append applies rec to the live set and, unless the log is memory-only,
// writes it as one fsynced line. A tombstone counts toward the next live
// compaction. A write error demotes the log and is returned for logging;
// the live set is updated either way. A record that does not encode is
// returned as an error and not applied.
func (l *Log[K, R]) Append(rec *R) error {
	line, err := l.codec.encodeLine(rec)
	if err != nil {
		return err
	}
	l.apply(rec, int64(len(line)))
	if err := l.appendLocked(line); err != nil {
		return err
	}
	if l.codec.Tombstone(rec) {
		l.tombstones++
		if l.tombstones >= l.compactEvery && l.durable() {
			// Live compaction: rewrite the log down to the live set so a
			// long-lived daemon's log stays bounded by its backlog.
			old := l.activeSegmentPath()
			if err := l.compactLocked(); err == nil {
				_ = l.fs.Remove(old)
			}
		}
	}
	return nil
}

// appendLocked writes one line to the active segment and fsyncs it.
// Memory-only and degraded logs skip the disk; any error demotes.
func (l *Log[K, R]) appendLocked(line []byte) error {
	if !l.durable() {
		return nil
	}
	if _, err := l.active.Write(line); err != nil {
		return l.demoteLocked(err)
	}
	if err := l.active.Sync(); err != nil {
		return l.demoteLocked(err)
	}
	return nil
}

// durable reports whether appends reach the disk: the log has an active
// segment and no write error has demoted it.
func (l *Log[K, R]) durable() bool { return l.active != nil && !l.degraded }

func (l *Log[K, R]) activeSegmentPath() string {
	return filepath.Join(l.dir, fmt.Sprintf("%08d.wal", l.seq))
}

// compactLocked writes the live set into a fresh segment — temp file,
// fsync, rename, dir fsync — and makes it the active append target. The
// caller removes superseded segments on success.
func (l *Log[K, R]) compactLocked() error {
	tmp, err := l.fs.CreateTemp(l.dir, "tmp-*")
	if err != nil {
		return l.demoteLocked(err)
	}
	fail := func(err error) error {
		tmp.Close()
		_ = l.fs.Remove(tmp.Name())
		return l.demoteLocked(err)
	}
	for el := l.order.Front(); el != nil; el = el.Next() {
		line, err := l.codec.encodeLine(&el.Value.(*entry[R]).rec)
		if err != nil {
			return fail(err)
		}
		if _, err := tmp.Write(line); err != nil {
			return fail(err)
		}
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	next := l.seq + 1
	if err := l.fs.Rename(tmp.Name(), filepath.Join(l.dir, fmt.Sprintf("%08d.wal", next))); err != nil {
		return fail(err)
	}
	if err := l.fs.SyncDir(l.dir); err != nil {
		tmp.Close()
		return l.demoteLocked(err)
	}
	// The open handle follows the rename: appends land in the new
	// segment file.
	if l.active != nil {
		l.active.Close()
	}
	l.active = tmp
	l.seq = next
	l.tombstones = 0
	l.compactions++
	return nil
}

// demoteLocked flips the log to memory-only exactly once.
func (l *Log[K, R]) demoteLocked(cause error) error {
	if !l.degraded {
		l.degraded = true
		l.log("%s degraded to memory-only: %v (appends lose crash durability until restart)", l.codec.Name, cause)
	}
	return cause
}

// Get returns the live record with identity k.
func (l *Log[K, R]) Get(k K) (R, bool) {
	if el, ok := l.live[k]; ok {
		return el.Value.(*entry[R]).rec, true
	}
	var zero R
	return zero, false
}

// Oldest returns the live record inserted first.
func (l *Log[K, R]) Oldest() (R, bool) {
	if el := l.order.Front(); el != nil {
		return el.Value.(*entry[R]).rec, true
	}
	var zero R
	return zero, false
}

// Each calls fn on every live record, oldest first. fn must not modify
// the log.
func (l *Log[K, R]) Each(fn func(*R)) {
	for el := l.order.Front(); el != nil; el = el.Next() {
		fn(&el.Value.(*entry[R]).rec)
	}
}

// Len is the live-set size.
func (l *Log[K, R]) Len() int { return l.order.Len() }

// Bytes is the encoded size of the live set, one line per record.
func (l *Log[K, R]) Bytes() int64 { return l.bytes }

// Stats snapshots the log's counters.
func (l *Log[K, R]) Stats() Stats {
	return Stats{
		Replayed:    l.replayed,
		Truncated:   l.truncated,
		Compactions: l.compactions,
		Degraded:    l.degraded,
	}
}

// Close closes the active segment handle. Records already appended stay
// durable; a closed log refuses nothing — further appends only update
// the live set (the daemon is exiting anyway).
func (l *Log[K, R]) Close() {
	if l.active != nil {
		l.active.Close()
		l.active = nil
		l.degraded = true
	}
}

// SetCompactEvery lowers the live-compaction threshold from
// CompactEvery, so tests in the wrapping packages reach a live
// compaction without a thousand fsyncs.
func (l *Log[K, R]) SetCompactEvery(n int) { l.compactEvery = n }

// segmentSeq parses "<seq>.wal" names.
func segmentSeq(name string) (uint64, bool) {
	base, ok := strings.CutSuffix(name, ".wal")
	if !ok || len(base) != 8 {
		return 0, false
	}
	n, err := strconv.ParseUint(base, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// encodeLine renders one record line with its binding checksum.
func (c *Codec[K, R]) encodeLine(rec *R) ([]byte, error) {
	body, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(body)
	line := make([]byte, 0, len(c.Version)+1+64+1+len(body)+1)
	line = append(line, c.Version...)
	line = append(line, ' ')
	line = append(line, hex.EncodeToString(sum[:])...)
	line = append(line, ' ')
	line = append(line, body...)
	line = append(line, '\n')
	return line, nil
}

// decodeLine parses, verifies and validates one record line.
func (c *Codec[K, R]) decodeLine(line []byte) (*R, error) {
	rest, ok := strings.CutPrefix(string(line), c.Version+" ")
	if !ok {
		return nil, fmt.Errorf("bad version prefix")
	}
	sum, body, ok := strings.Cut(rest, " ")
	if !ok || len(sum) != 64 {
		return nil, fmt.Errorf("malformed checksum field")
	}
	got := sha256.Sum256([]byte(body))
	if hex.EncodeToString(got[:]) != sum {
		return nil, fmt.Errorf("checksum mismatch")
	}
	var rec R
	if err := json.Unmarshal([]byte(body), &rec); err != nil {
		return nil, err
	}
	if err := c.Validate(&rec); err != nil {
		return nil, err
	}
	return &rec, nil
}
