package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"coordattack/internal/store"
)

// The fault suite for the mechanism both wrappers share: torn and
// corrupt lines on replay, and the degrade discipline on write errors.
// The queue journal and the hint log each keep one torn-tail smoke test
// that drives the same path through their own record type.

// faultFS wraps the real disk with two switches: outage fails every
// mutating call (CreateTemp, Write, Sync, Rename), syncOnly fails only
// File.Sync, as a disk that accepts writes but cannot flush them does.
type faultFS struct {
	store.FS
	outage, syncOnly atomic.Bool
}

var errInjected = errors.New("faultFS: injected write error")

func (f *faultFS) CreateTemp(dir, pattern string) (store.File, error) {
	if f.outage.Load() {
		return nil, errInjected
	}
	inner, err := f.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: inner, fs: f}, nil
}

func (f *faultFS) Rename(oldpath, newpath string) error {
	if f.outage.Load() {
		return errInjected
	}
	return f.FS.Rename(oldpath, newpath)
}

type faultFile struct {
	store.File
	fs *faultFS
}

func (f *faultFile) Write(p []byte) (int, error) {
	if f.fs.outage.Load() {
		return 0, errInjected
	}
	return f.File.Write(p)
}

func (f *faultFile) Sync() error {
	if f.fs.outage.Load() || f.fs.syncOnly.Load() {
		return errInjected
	}
	return f.File.Sync()
}

func openTestLog(t *testing.T, dir string, fs store.FS, logf func(string, ...any)) *Log[string, testRec] {
	t.Helper()
	if logf == nil {
		logf = t.Logf
	}
	l, err := Open(dir, fs, logf, testCodec)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(l.Close)
	return l
}

func put(t *testing.T, l *Log[string, testRec], keys ...string) {
	t.Helper()
	for i, k := range keys {
		if err := l.Append(&testRec{Op: "put", Key: k, V: i + 1}); err != nil {
			t.Fatalf("append %s: %v", k, err)
		}
	}
}

func liveKeys(l *Log[string, testRec]) []string {
	var out []string
	l.Each(func(r *testRec) { out = append(out, r.Key) })
	return out
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

// TestReplaySkipsTornTail: a crash mid-append leaves a partial final
// line, either a prefix of a new line with no newline or the last line
// cut short. Replay skips it, counts it, and keeps every intact record.
func TestReplaySkipsTornTail(t *testing.T) {
	for name, tear := range map[string]func(seg []byte) []byte{
		"partial-append": func(seg []byte) []byte {
			line := validLine(testRec{Op: "put", Key: "torn", V: 9})
			return append(seg, line[:len(line)/2]...)
		},
		"cut-last-line": func(seg []byte) []byte { return seg[:len(seg)-9] },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			l := openTestLog(t, dir, nil, nil)
			put(t, l, "a", "b", "c")
			l.Close()
			seg := onlySegment(t, dir)
			data, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(seg, tear(data), 0o644); err != nil {
				t.Fatal(err)
			}

			re := openTestLog(t, dir, nil, nil)
			want := []string{"a", "b", "c"}
			if name == "cut-last-line" {
				want = want[:2]
			}
			if got := liveKeys(re); !reflect.DeepEqual(got, want) {
				t.Fatalf("live after torn tail = %v, want %v", got, want)
			}
			if st := re.Stats(); st.Truncated != 1 || st.Replayed != len(want) {
				t.Fatalf("stats after torn tail = %+v, want 1 truncated, %d replayed", st, len(want))
			}
		})
	}
}

// TestReplaySkipsCorruptMiddleLine: a corrupted line mid-segment (bit
// rot, or a torn write merged with a later append) is skipped while the
// lines around it replay.
func TestReplaySkipsCorruptMiddleLine(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, dir, nil, nil)
	put(t, l, "a", "b", "c")
	l.Close()
	seg := onlySegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	// Flip a byte inside the middle record's JSON body.
	mid := []byte(lines[1])
	mid[len(mid)-10] ^= 0x01
	lines[1] = string(mid)
	if err := os.WriteFile(seg, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}

	re := openTestLog(t, dir, nil, nil)
	if got := liveKeys(re); !reflect.DeepEqual(got, []string{"a", "c"}) {
		t.Fatalf("live around corrupt line = %v, want [a c]", got)
	}
	if st := re.Stats(); st.Truncated != 1 {
		t.Fatalf("truncated = %d, want 1", st.Truncated)
	}
}

// TestDegradesOnWriteError: the first failed write demotes the log to
// memory-only. That append returns the error for logging; the demotion
// is logged once; later appends, tombstones included, return nil and
// still update the live set. Both a full disk outage and a disk that
// only fails fsync take this path.
func TestDegradesOnWriteError(t *testing.T) {
	for name, breakFS := range map[string]func(*faultFS){
		"outage": func(f *faultFS) { f.outage.Store(true) },
		"sync":   func(f *faultFS) { f.syncOnly.Store(true) },
	} {
		t.Run(name, func(t *testing.T) {
			fs := &faultFS{FS: store.DiskFS()}
			var logged []string
			l := openTestLog(t, t.TempDir(), fs, func(format string, args ...any) {
				logged = append(logged, fmt.Sprintf(format, args...))
			})
			put(t, l, "before")
			if l.Stats().Degraded {
				t.Fatal("healthy log reports degraded")
			}
			breakFS(fs)
			if err := l.Append(&testRec{Op: "put", Key: "during"}); err == nil {
				t.Fatal("append during the fault returned nil, want the write error")
			}
			if !l.Stats().Degraded {
				t.Fatal("write error did not demote the log")
			}
			n := len(logged)
			if n != 1 || !strings.Contains(logged[0], "degraded") {
				t.Fatalf("demotion log lines = %v, want one degraded line", logged)
			}
			// A degraded log absorbs further traffic silently.
			if err := l.Append(&testRec{Op: "put", Key: "after"}); err != nil {
				t.Fatalf("append while degraded = %v, want nil", err)
			}
			if err := l.Append(&testRec{Op: "del", Key: "before"}); err != nil {
				t.Fatalf("tombstone while degraded = %v, want nil", err)
			}
			if len(logged) != n {
				t.Fatalf("demotion logged more than once: %v", logged)
			}
			if got := liveKeys(l); !reflect.DeepEqual(got, []string{"during", "after"}) {
				t.Fatalf("live while degraded = %v, want [during after]", got)
			}
		})
	}
}
