package hints

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

const (
	peerA = "http://127.0.0.1:9001"
	peerB = "http://127.0.0.1:9002"
)

func key(i int) string {
	return fmt.Sprintf("%064x", i)
}

func mustOpen(t *testing.T, dir string, opts Options) *Log {
	t.Helper()
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%q): %v", dir, err)
	}
	t.Cleanup(l.Close)
	return l
}

func TestHintsAddDeliverPending(t *testing.T) {
	l := mustOpen(t, t.TempDir(), Options{})
	if err := l.Add(peerA, key(1)); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if err := l.Add(peerA, key(2)); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if err := l.Add(peerB, key(1)); err != nil {
		t.Fatalf("Add: %v", err)
	}
	// Re-adding a pending pair is a dedup no-op.
	if err := l.Add(peerA, key(1)); err != nil {
		t.Fatalf("re-Add: %v", err)
	}
	if got := l.Pending(peerA); !reflect.DeepEqual(got, []string{key(1), key(2)}) {
		t.Fatalf("Pending(A) = %v", got)
	}
	if got := l.PendingFor(peerB); got != 1 {
		t.Fatalf("PendingFor(B) = %d", got)
	}
	if got := l.Peers(); !reflect.DeepEqual(got, []string{peerA, peerB}) {
		t.Fatalf("Peers() = %v", got)
	}
	st := l.Stats()
	if st.Adds != 3 || st.Pending != 3 || st.Peers != 2 {
		t.Fatalf("stats after adds: %+v", st)
	}

	if err := l.Delivered(peerA, key(1)); err != nil {
		t.Fatalf("Delivered: %v", err)
	}
	// Clearing an unknown pair is a no-op.
	if err := l.Delivered(peerA, "ffff"); err != nil {
		t.Fatalf("Delivered unknown: %v", err)
	}
	if got := l.Pending(peerA); !reflect.DeepEqual(got, []string{key(2)}) {
		t.Fatalf("Pending(A) after delivery = %v", got)
	}
	st = l.Stats()
	if st.Delivered != 1 || st.Pending != 2 {
		t.Fatalf("stats after delivery: %+v", st)
	}
}

func TestHintsReopenReplays(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	for i := 0; i < 5; i++ {
		if err := l.Add(peerA, key(i)); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	if err := l.Delivered(peerA, key(2)); err != nil {
		t.Fatalf("Delivered: %v", err)
	}
	l.Close() // simulated crash: no compaction beyond what already ran

	re := mustOpen(t, dir, Options{})
	want := []string{key(0), key(1), key(3), key(4)}
	if got := re.Pending(peerA); !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed Pending(A) = %v, want %v", got, want)
	}
	if st := re.Stats(); st.Replayed != 4 {
		t.Fatalf("Replayed = %d, want 4", st.Replayed)
	}
	// Compact-on-open leaves exactly one segment and no temp files.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs int
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "tmp-") {
			t.Fatalf("stray temp file %s after open", e.Name())
		}
		if strings.HasSuffix(e.Name(), ".wal") {
			segs++
		}
	}
	if segs != 1 {
		t.Fatalf("segments after compact-on-open = %d, want 1", segs)
	}
}

// TestHintsTornTailTolerated is the hint log's smoke test of the shared
// WAL fault path; internal/wal's fault suite covers torn and corrupt
// lines and write errors in full.
func TestHintsTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	if err := l.Add(peerA, key(1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Add(peerA, key(2)); err != nil {
		t.Fatal(err)
	}
	l.Close()
	seg := onlySegment(t, dir)

	// Chop the last line mid-record: the crash-torn tail.
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, data[:len(data)-9], 0o644); err != nil {
		t.Fatal(err)
	}

	re := mustOpen(t, dir, Options{})
	if got := re.Pending(peerA); !reflect.DeepEqual(got, []string{key(1)}) {
		t.Fatalf("Pending after torn tail = %v", got)
	}
	if st := re.Stats(); st.Truncated != 1 {
		t.Fatalf("Truncated = %d, want 1", st.Truncated)
	}
}

func TestHintsMaxBytesShedsOldest(t *testing.T) {
	// Budget for exactly three hints; the fourth Add sheds the oldest.
	per := hintSize(t)
	l := mustOpen(t, t.TempDir(), Options{MaxBytes: 3 * per})
	for i := 0; i < 4; i++ {
		if err := l.Add(peerA, key(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := l.Pending(peerA); !reflect.DeepEqual(got, []string{key(1), key(2), key(3)}) {
		t.Fatalf("Pending after shed = %v", got)
	}
	st := l.Stats()
	if st.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", st.Dropped)
	}
	// A cap tighter than one hint still keeps the newest.
	tiny := mustOpen(t, t.TempDir(), Options{MaxBytes: 1})
	if err := tiny.Add(peerA, key(9)); err != nil {
		t.Fatal(err)
	}
	if got := tiny.PendingFor(peerA); got != 1 {
		t.Fatalf("tiny cap kept %d hints, want the newest", got)
	}
}

func TestHintsShedSurvivesReplay(t *testing.T) {
	dir := t.TempDir()
	per := hintSize(t)
	l := mustOpen(t, dir, Options{MaxBytes: 2 * per})
	for i := 0; i < 3; i++ {
		if err := l.Add(peerA, key(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	// The shed tombstone was journaled: a replay agrees with the
	// in-memory state, it does not resurrect the dropped hint.
	re := mustOpen(t, dir, Options{})
	if got := re.Pending(peerA); !reflect.DeepEqual(got, []string{key(1), key(2)}) {
		t.Fatalf("replayed Pending after shed = %v", got)
	}
}

func TestHintsMemoryOnly(t *testing.T) {
	l := mustOpen(t, "", Options{})
	if err := l.Add(peerA, key(1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Delivered(peerA, key(1)); err != nil {
		t.Fatal(err)
	}
	if l.Degraded() {
		t.Fatal("memory-only log reported degraded")
	}
	if st := l.Stats(); st.Adds != 1 || st.Delivered != 1 || st.Pending != 0 {
		t.Fatalf("memory-only stats: %+v", st)
	}
}

func TestHintsCompactionBoundsLog(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	l.log.SetCompactEvery(8)
	for i := 0; i < 40; i++ {
		if err := l.Add(peerA, key(i)); err != nil {
			t.Fatal(err)
		}
		if err := l.Delivered(peerA, key(i)); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".wal") {
			segs = append(segs, e.Name())
		}
	}
	if len(segs) != 1 {
		t.Fatalf("segments after live compaction = %v, want 1", segs)
	}
	data, err := os.ReadFile(filepath.Join(dir, segs[0]))
	if err != nil {
		t.Fatal(err)
	}
	// The surviving segment holds only post-compaction appends, far
	// fewer than the 80 records written in total.
	if lines := strings.Count(string(data), "\n"); lines >= 80 {
		t.Fatalf("compaction never bounded the log: %d lines", lines)
	}
}

// hintSize is the encoded size of one pending hint, the MaxBytes unit,
// sampled from a memory-only log so its timestamp is as wide as the
// ones Add writes.
func hintSize(t *testing.T) int64 {
	t.Helper()
	l := mustOpen(t, "", Options{})
	if err := l.Add(peerA, key(0)); err != nil {
		t.Fatal(err)
	}
	return l.log.Bytes()
}

func onlySegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("want exactly one segment, have %v", segs)
	}
	return segs[0]
}

// goldenHints are the records of testdata/hints-v1.wal, a segment
// written by the hint log before it moved onto internal/wal: three adds
// and the delivery of the first.
var goldenHints = []Record{
	{Op: OpAdd, Peer: peerA, Key: key(1), At: 1792210907087689284},
	{Op: OpAdd, Peer: peerA, Key: key(2), At: 1792210907088002899},
	{Op: OpAdd, Peer: peerB, Key: key(1), At: 1792210907088114389},
	{Op: OpDone, Peer: peerA, Key: key(1)},
}

// TestHintsGoldenCompat: the checked-in v1 segment replays to the same
// pending set with its records intact, the same records encode to
// byte-identical lines, and a line whose body no longer matches its
// checksum is dropped — a daemon upgraded in place replays its old hint
// log.
func TestHintsGoldenCompat(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "hints-v1.wal"))
	if err != nil {
		t.Fatal(err)
	}
	replay := func(data []byte) *Log {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "00000001.wal"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		return mustOpen(t, dir, Options{})
	}
	old := replay(golden)
	if got := old.Pending(peerA); !reflect.DeepEqual(got, []string{key(2)}) {
		t.Fatalf("golden Pending(A) = %v", got)
	}
	if got := old.Pending(peerB); !reflect.DeepEqual(got, []string{key(1)}) {
		t.Fatalf("golden Pending(B) = %v", got)
	}
	for _, want := range goldenHints[1:3] {
		if got, ok := old.log.Get(pair{want.Peer, want.Key}); !ok || got != want {
			t.Fatalf("golden record = %+v (present %v), want %+v", got, ok, want)
		}
	}
	if st := old.Stats(); st.Replayed != 2 || st.Truncated != 0 {
		t.Fatalf("golden replay stats = %+v", st)
	}

	fresh := t.TempDir()
	l := mustOpen(t, fresh, Options{})
	for i := range goldenHints {
		if err := l.log.Append(&goldenHints[i]); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	written, err := os.ReadFile(onlySegment(t, fresh))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(written, golden) {
		t.Fatalf("hint lines drifted from the v1 golden:\n got %s\nwant %s", written, golden)
	}

	// Flipping one byte of the final (done) body breaks its checksum:
	// the tombstone is dropped and the delivered hint stays pending.
	corrupt := append([]byte(nil), golden...)
	corrupt[len(corrupt)-3] ^= 1
	bad := replay(corrupt)
	if got := bad.Pending(peerA); !reflect.DeepEqual(got, []string{key(1), key(2)}) {
		t.Fatalf("Pending(A) with a corrupt tombstone = %v", got)
	}
	if st := bad.Stats(); st.Truncated != 1 {
		t.Fatalf("Truncated = %d, want 1", st.Truncated)
	}
}
