package queue

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"coordattack/internal/store"
)

func openJournal(t *testing.T, dir string, opts JournalOptions) *Journal {
	t.Helper()
	if opts.Logf == nil {
		opts.Logf = t.Logf
	}
	j, err := OpenJournal(dir, opts)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	return j
}

func acceptRec(key string) Record {
	return Record{
		Key:   key,
		Flow:  "interactive",
		Class: string(ClassInteractive),
		Spec:  json.RawMessage(fmt.Sprintf(`{"protocol":"s:0.5","seed":%q}`, key)),
	}
}

func pendingKeys(recs []Record) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = r.Key
	}
	return out
}

// TestJournalReplayAfterReopen: accepts minus settles is exactly the
// pending set a reopened journal reports, in admission order.
func TestJournalReplayAfterReopen(t *testing.T) {
	dir := t.TempDir()
	j1 := openJournal(t, dir, JournalOptions{})
	for _, k := range []string{"a", "b", "c", "d"} {
		if err := j1.Accept(acceptRec(k)); err != nil {
			t.Fatalf("Accept(%s): %v", k, err)
		}
	}
	if err := j1.Settle("b"); err != nil {
		t.Fatalf("Settle: %v", err)
	}
	j1.Close()

	j2 := openJournal(t, dir, JournalOptions{})
	defer j2.Close()
	got := pendingKeys(j2.Pending())
	want := []string{"a", "c", "d"}
	if len(got) != len(want) {
		t.Fatalf("pending after reopen = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pending order = %v, want %v", got, want)
		}
	}
	st := j2.Stats()
	if st.Replayed != 3 || st.Pending != 3 || st.Degraded {
		t.Fatalf("stats after reopen = %+v", st)
	}
	// The replayed records keep their scheduling envelope.
	if j2.Pending()[0].Flow != "interactive" || len(j2.Pending()[0].Spec) == 0 {
		t.Fatalf("replayed record lost its envelope: %+v", j2.Pending()[0])
	}
}

// TestJournalCompactOnOpen: reopening rewrites the log into one fresh
// segment and removes the old ones and stray temp files.
func TestJournalCompactOnOpen(t *testing.T) {
	dir := t.TempDir()
	j1 := openJournal(t, dir, JournalOptions{})
	for i := 0; i < 5; i++ {
		if err := j1.Accept(acceptRec(fmt.Sprintf("k%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		if err := j1.Settle(fmt.Sprintf("k%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	j1.Close()
	// A crash mid-compaction leaves a temp file behind.
	if err := os.WriteFile(filepath.Join(dir, "tmp-123"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}

	j2 := openJournal(t, dir, JournalOptions{})
	j2.Close()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "tmp-") {
			t.Fatalf("stray temp file %s survived open", e.Name())
		}
		segs = append(segs, e.Name())
	}
	if len(segs) != 1 {
		t.Fatalf("segments after compact-on-open = %v, want exactly one", segs)
	}
	// The compacted segment holds only the single pending accept.
	data, err := os.ReadFile(filepath.Join(dir, segs[0]))
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), "\n"); n != 1 {
		t.Fatalf("compacted segment has %d lines, want 1:\n%s", n, data)
	}
	if got := pendingKeys(j2.Pending()); len(got) != 1 || got[0] != "k4" {
		t.Fatalf("pending after compaction = %v, want [k4]", got)
	}
}

// TestJournalLiveCompaction: once the live-compaction threshold of
// tombstones accumulates the log is rewritten in place, bounded by the
// backlog.
func TestJournalLiveCompaction(t *testing.T) {
	dir := t.TempDir()
	j := openJournal(t, dir, JournalOptions{})
	defer j.Close()
	j.log.SetCompactEvery(3)
	for i := 0; i < 8; i++ {
		if err := j.Accept(acceptRec(fmt.Sprintf("k%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ {
		if err := j.Settle(fmt.Sprintf("k%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	st := j.Stats()
	// One compaction at open plus two live ones (after the 3rd and 6th
	// settles).
	if st.Compactions != 3 {
		t.Fatalf("compactions = %d, want 3 (stats %+v)", st.Compactions, st)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("segments after live compaction = %v, want one", names)
	}
	data, err := os.ReadFile(filepath.Join(dir, entries[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), "\n"); n != 2 {
		t.Fatalf("live-compacted segment has %d lines, want 2 pending:\n%s", n, data)
	}
}

// TestJournalTornTailRecovery: a crash mid-append leaves a partial final
// line; replay skips it and keeps every intact record. This is the
// journal's smoke test of the shared WAL fault path; internal/wal's
// fault suite covers torn and corrupt lines and write errors in full.
func TestJournalTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	j1 := openJournal(t, dir, JournalOptions{})
	for _, k := range []string{"a", "b"} {
		if err := j1.Accept(acceptRec(k)); err != nil {
			t.Fatal(err)
		}
	}
	j1.Close()
	// Fabricate the torn tail: append a prefix of a valid record line
	// with no trailing newline, as a crash mid-write would leave. The
	// full line is what a journal in another directory writes.
	other := t.TempDir()
	jt := openJournal(t, other, JournalOptions{})
	if err := jt.Accept(Record{Key: "torn", Flow: "interactive"}); err != nil {
		t.Fatal(err)
	}
	jt.Close()
	full, err := os.ReadFile(onlySegment(t, other))
	if err != nil {
		t.Fatal(err)
	}
	seg := onlySegment(t, dir)
	f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(full[:len(full)/2]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2 := openJournal(t, dir, JournalOptions{})
	defer j2.Close()
	got := pendingKeys(j2.Pending())
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("pending after torn tail = %v, want [a b]", got)
	}
	if st := j2.Stats(); st.Truncated != 1 {
		t.Fatalf("truncated = %d, want 1", st.Truncated)
	}
}

// TestJournalSettleUnknownKeyIsNoop: tombstoning a key with no pending
// accept (replayed duplicate, never-journaled job) does nothing.
func TestJournalSettleUnknownKeyIsNoop(t *testing.T) {
	dir := t.TempDir()
	j := openJournal(t, dir, JournalOptions{})
	defer j.Close()
	if err := j.Settle("ghost"); err != nil {
		t.Fatalf("Settle(ghost) = %v", err)
	}
	if st := j.Stats(); st.Settles != 0 {
		t.Fatalf("settles = %d after no-op settle", st.Settles)
	}
}

func onlySegment(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("want exactly one segment, have %v", names)
	}
	return filepath.Join(dir, entries[0].Name())
}

// readFailFS fails ReadFile for one named file, standing in for a
// transient read error at boot.
type readFailFS struct {
	store.FS
	name string
}

func (f readFailFS) ReadFile(name string) ([]byte, error) {
	if filepath.Base(name) == f.name {
		return nil, fmt.Errorf("readFailFS: injected read error")
	}
	return f.FS.ReadFile(name)
}

// TestJournalUnreadableSegmentSurvives: a segment that cannot be read at
// open is never deleted — the journal starts degraded instead of
// compacting, and a later open on a healthy disk replays the accepted
// jobs it holds.
func TestJournalUnreadableSegmentSurvives(t *testing.T) {
	dir := t.TempDir()
	j1 := openJournal(t, dir, JournalOptions{})
	for _, k := range []string{"a", "b"} {
		if err := j1.Accept(acceptRec(k)); err != nil {
			t.Fatal(err)
		}
	}
	j1.Close()
	seg := onlySegment(t, dir)

	j2 := openJournal(t, dir, JournalOptions{FS: readFailFS{FS: store.DiskFS(), name: filepath.Base(seg)}})
	if !j2.Degraded() {
		t.Fatal("journal with an unreadable segment did not start degraded")
	}
	if err := j2.Accept(acceptRec("c")); err != nil {
		t.Fatalf("accept while degraded = %v, want nil", err)
	}
	j2.Close()
	if _, err := os.Stat(seg); err != nil {
		t.Fatalf("unreadable segment did not survive open: %v", err)
	}

	j3 := openJournal(t, dir, JournalOptions{})
	defer j3.Close()
	if got := pendingKeys(j3.Pending()); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("pending after healthy reopen = %v, want [a b]", got)
	}
}

// goldenJournal is the operation sequence behind testdata/journal-v1.wal,
// a segment written by the journal before it moved onto internal/wal:
// three accepts, an intent on k-b, a settle of k-a.
func goldenJournal(t *testing.T, j *Journal) {
	t.Helper()
	for _, rec := range []Record{
		{Key: "k-a", Flow: "interactive", Class: "interactive", Spec: json.RawMessage(`{"protocol":"s:0.5","seed":1}`), At: 1700000000000000001},
		{Key: "k-b", Flow: "sw000002", Class: "sweep", Priority: 5, Spec: json.RawMessage(`{"protocol":"s:0.1","rounds":8,"seed":2}`), At: 1700000000000000002},
		{Key: "k-c", Flow: "interactive", Class: "interactive", Priority: -3, Spec: json.RawMessage(`{"protocol":"a","seed":3}`), At: 1700000000000000003},
	} {
		if err := j.Accept(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Intent("k-b", "http://127.0.0.1:9002"); err != nil {
		t.Fatal(err)
	}
	if err := j.Settle("k-a"); err != nil {
		t.Fatal(err)
	}
}

// TestJournalGoldenCompat: the checked-in v1 segment replays to the same
// pending set, and the same operations write byte-identical lines, so a
// daemon upgraded in place replays its old journal.
func TestJournalGoldenCompat(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "journal-v1.wal"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "00000001.wal"), golden, 0o644); err != nil {
		t.Fatal(err)
	}
	old := openJournal(t, dir, JournalOptions{})
	got := old.Pending()
	st := old.Stats()
	old.Close()
	want := []Record{
		{Op: OpIntent, Key: "k-b", Flow: "sw000002", Class: "sweep", Priority: 5, Spec: json.RawMessage(`{"protocol":"s:0.1","rounds":8,"seed":2}`), Thief: "http://127.0.0.1:9002", At: 1700000000000000002},
		{Op: OpAccept, Key: "k-c", Flow: "interactive", Class: "interactive", Priority: -3, Spec: json.RawMessage(`{"protocol":"a","seed":3}`), At: 1700000000000000003},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("golden replay pending = %+v, want %+v", got, want)
	}
	if st.Truncated != 0 || st.Replayed != 2 {
		t.Fatalf("golden replay stats = %+v", st)
	}

	fresh := t.TempDir()
	j := openJournal(t, fresh, JournalOptions{})
	goldenJournal(t, j)
	j.Close()
	written, err := os.ReadFile(onlySegment(t, fresh))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(written, golden) {
		t.Fatalf("journal lines drifted from the v1 golden:\n got %s\nwant %s", written, golden)
	}
}
