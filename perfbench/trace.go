package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"coordattack/internal/mc"
	"coordattack/internal/service"
	"coordattack/internal/store"
)

// span is one timed call into a layer. Spans of one request share Key,
// the job's content address (Status.Key); spans the benchmark's own
// client opens also carry Req, the request's sequence number, which
// separates concurrent requests for one key.
type span struct {
	Name       string `json:"name"`
	Key        string `json:"key,omitempty"`
	Req        uint64 `json:"req,omitempty"`
	Start, End int64  `json:"-"` // nanoseconds since the tracer's epoch
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. Recording is off
// until start, so a traced run can first measure with the wrappers in
// place but idle.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// add records a span that started at start and ends now.
func (t *tracer) add(name, key string, req uint64, start int64) {
	if t == nil || !t.on.Load() {
		return
	}
	s := span{Name: name, Key: key, Req: req, Start: start, End: t.now()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write dumps the spans as JSON lines with start and end in microseconds.
func (t *tracer) write(path string) error {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, s := range t.snapshot() {
		if err := enc.Encode(struct {
			span
			StartUS float64 `json:"start_us"`
			EndUS   float64 `json:"end_us"`
		}{s, float64(s.Start) / 1e3, float64(s.End) / 1e3}); err != nil {
			return err
		}
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}

// wrapEngine is the Config.WrapEngine seam: one service.engine span per
// engine run, keyed by the canonical spec's content address.
func (t *tracer) wrapEngine(engine string, next service.RunFunc) service.RunFunc {
	return func(ctx context.Context, spec service.JobSpec, workers int, progress func(mc.Snapshot)) (json.RawMessage, error) {
		start := t.now()
		body, err := next(ctx, spec, workers, progress)
		t.add("service.engine", spec.Key(), 0, start)
		return body, err
	}
}

// reqHeader carries the client's request sequence number to the
// middleware; the daemon ignores it.
const reqHeader = "X-Perfbench-Req"

// tracedHandler is the middleware around Server.Handler: one span per
// HTTP request, named after the route.
type tracedHandler struct {
	next http.Handler
	t    *tracer
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := h.t.now()
	name, key := routeName(r.Method, r.URL.Path)
	var req uint64
	if v := r.Header.Get(reqHeader); v != "" {
		req = parseUint(v)
	}
	rw := &keySniffer{ResponseWriter: w}
	h.next.ServeHTTP(rw, r)
	if key == "" {
		key = rw.key()
	}
	h.t.add(name, key, req, start)
}

// routeName maps a request to its span name and, for the peer routes,
// the key named in the path.
func routeName(method, path string) (name, key string) {
	switch {
	case method == http.MethodPost && path == "/v1/jobs":
		return "http.submit", ""
	case strings.HasPrefix(path, "/v1/jobs/") && strings.HasSuffix(path, "/watch"):
		return "http.watch", ""
	case strings.HasPrefix(path, "/v1/peer/results/"):
		op := "http.peer.fetch"
		if method == http.MethodPut {
			op = "http.peer.push"
		}
		return op, strings.TrimPrefix(path, "/v1/peer/results/")
	case strings.HasPrefix(path, "/v1/peer/"):
		rest := strings.TrimPrefix(path, "/v1/peer/")
		op, key, _ := strings.Cut(rest, "/")
		return "http.peer." + op, key
	case path == "/metrics" || path == "/healthz":
		return "http.monitor", ""
	}
	return "http.other", ""
}

// keySniffer keeps the start of a response body, where a Status names
// its key, and passes streaming flushes through for /watch.
type keySniffer struct {
	http.ResponseWriter
	head []byte
}

const sniffBytes = 256

func (k *keySniffer) Write(p []byte) (int, error) {
	if room := sniffBytes - len(k.head); room > 0 {
		if room > len(p) {
			room = len(p)
		}
		k.head = append(k.head, p[:room]...)
	}
	return k.ResponseWriter.Write(p)
}

func (k *keySniffer) Flush() {
	if f, ok := k.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (k *keySniffer) key() string { return findKey(k.head) }

// findKey returns the first `"key":"<64 hex>"` value in b.
func findKey(b []byte) string {
	const tag = `"key":"`
	i := bytes.Index(b, []byte(tag))
	if i < 0 {
		return ""
	}
	rest := b[i+len(tag):]
	if len(rest) < 64 || !isKey(string(rest[:64])) {
		return ""
	}
	return string(rest[:64])
}

func isKey(s string) bool {
	if len(s) != 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f') {
			return false
		}
	}
	return true
}

func parseUint(s string) uint64 {
	var v uint64
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return 0
		}
		v = v*10 + uint64(s[i]-'0')
	}
	return v
}

// tracedTransport is the cluster.Options.Transport seam: one span per
// peer call, from dialing until the caller closes the response body,
// with the peer op and key taken from the URL.
type tracedTransport struct {
	next http.RoundTripper
	t    *tracer
}

func (tt *tracedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	start := tt.t.now()
	name, key := routeName(r.Method, r.URL.Path)
	name = "cluster." + strings.TrimPrefix(name, "http.peer.")
	resp, err := tt.next.RoundTrip(r)
	if err != nil {
		tt.t.add(name, key, 0, start)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, end: func() { tt.t.add(name, key, 0, start) }}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}

// tracedFS is the store.FS seam, one per directory. It times reads,
// writes, fsyncs and renames, and counts fsyncs:
//   - <layer>.read: ReadFile of a key-named file (the store's Get).
//   - <layer>.put: CreateTemp through the rename and directory fsync of
//     one key-named entry (the store's write protocol).
//   - <layer>.append: one Write and its Sync on a log segment, keyed by
//     the record's "key" field (the journal's and hint log's append).
type tracedFS struct {
	store.FS
	t      *tracer
	layer  string
	fsyncs atomic.Int64

	mu      sync.Mutex
	created map[string]int64   // temp file → CreateTemp start
	renamed map[string]putSpan // directory → entry renamed in, awaiting SyncDir
}

type putSpan struct {
	key   string
	start int64
}

func newTracedFS(t *tracer, layer string) *tracedFS {
	return &tracedFS{
		FS: store.DiskFS(), t: t, layer: layer,
		created: make(map[string]int64),
		renamed: make(map[string]putSpan),
	}
}

func (f *tracedFS) ReadFile(name string) ([]byte, error) {
	start := f.t.now()
	b, err := f.FS.ReadFile(name)
	if base := filepath.Base(name); isKey(base) {
		f.t.add(f.layer+".read", base, 0, start)
	}
	return b, err
}

func (f *tracedFS) CreateTemp(dir, pattern string) (store.File, error) {
	start := f.t.now()
	file, err := f.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	f.created[file.Name()] = start
	f.mu.Unlock()
	return &tracedFile{File: file, fs: f}, nil
}

func (f *tracedFS) Rename(oldpath, newpath string) error {
	err := f.FS.Rename(oldpath, newpath)
	f.mu.Lock()
	start, ok := f.created[oldpath]
	delete(f.created, oldpath)
	if base := filepath.Base(newpath); ok && err == nil && isKey(base) {
		f.renamed[filepath.Dir(newpath)] = putSpan{key: base, start: start}
	}
	f.mu.Unlock()
	return err
}

func (f *tracedFS) Remove(name string) error {
	f.mu.Lock()
	delete(f.created, name)
	f.mu.Unlock()
	return f.FS.Remove(name)
}

func (f *tracedFS) SyncDir(name string) error {
	err := f.FS.SyncDir(name)
	if f.t.on.Load() {
		f.fsyncs.Add(1)
	}
	f.mu.Lock()
	put, ok := f.renamed[name]
	delete(f.renamed, name)
	f.mu.Unlock()
	if ok {
		f.t.add(f.layer+".put", put.key, 0, put.start)
	}
	return err
}

// tracedFile times one open file's appends.
type tracedFile struct {
	store.File
	fs         *tracedFS
	writeStart int64
	writeKey   string
}

func (w *tracedFile) Write(p []byte) (int, error) {
	w.writeStart = w.fs.t.now()
	w.writeKey = findKey(p)
	return w.File.Write(p)
}

func (w *tracedFile) Sync() error {
	err := w.File.Sync()
	if w.fs.t.on.Load() {
		w.fs.fsyncs.Add(1)
	}
	if w.writeKey != "" {
		w.fs.t.add(w.fs.layer+".append", w.writeKey, 0, w.writeStart)
		w.writeKey = ""
	}
	return err
}

// spanNode is a span with the spans it caused.
type spanNode struct {
	span
	children []*spanNode
}

// selfTime is the node's duration minus the part of it that its
// children cover; overlapping children count once.
func (n *spanNode) selfTime() time.Duration {
	ivs := make([][2]int64, 0, len(n.children))
	for _, c := range n.children {
		lo, hi := max(c.Start, n.Start), min(c.End, n.End)
		if hi > lo {
			ivs = append(ivs, [2]int64{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var covered, curLo, curHi int64
	for i, iv := range ivs {
		if i == 0 || iv[0] > curHi {
			covered += curHi - curLo
			curLo, curHi = iv[0], iv[1]
		} else if iv[1] > curHi {
			curHi = iv[1]
		}
	}
	covered += curHi - curLo
	return n.dur() - time.Duration(covered)
}

// walk visits n and its descendants, depth first.
func (n *spanNode) walk(f func(*spanNode)) {
	f(n)
	for _, c := range n.children {
		c.walk(f)
	}
}

// buildTrees links spans into one tree per root span (a client
// "request" span). A span belongs to a root when it carries the root's
// Req, or when it carries no Req but the root's Key and lies inside the
// root's interval (the latest-starting such root wins). Spans that
// outlast their root ran off the request's blocking path and are left
// out. Inside a tree a span's parent is the innermost span containing it.
func buildTrees(spans []span) []*spanNode {
	var roots []*spanNode
	byReq := make(map[uint64]*spanNode)
	byKey := make(map[string][]*spanNode)
	for _, s := range spans {
		if s.Name == "request" {
			n := &spanNode{span: s}
			roots = append(roots, n)
			byReq[s.Req] = n
			if s.Key != "" {
				byKey[s.Key] = append(byKey[s.Key], n)
			}
		}
	}
	for _, rs := range byKey {
		sort.Slice(rs, func(a, b int) bool { return rs[a].Start < rs[b].Start })
	}
	members := make(map[*spanNode][]span)
	for _, s := range spans {
		if s.Name == "request" {
			continue
		}
		var root *spanNode
		if s.Req != 0 {
			root = byReq[s.Req]
		} else if s.Key != "" {
			for _, r := range byKey[s.Key] {
				if r.Start > s.Start {
					break
				}
				if s.End <= r.End {
					root = r
				}
			}
		}
		if root != nil && s.Start >= root.Start && s.End <= root.End {
			members[root] = append(members[root], s)
		}
	}
	for _, root := range roots {
		nest(root, members[root])
	}
	return roots
}

// nest attaches each member below the innermost already-placed span
// that contains it. Members are placed longest-first among equal starts,
// so a container always precedes what it contains.
func nest(root *spanNode, members []span) {
	sort.Slice(members, func(a, b int) bool {
		if members[a].Start != members[b].Start {
			return members[a].Start < members[b].Start
		}
		return members[a].End > members[b].End
	})
	stack := []*spanNode{root}
	for _, s := range members {
		for len(stack) > 1 && s.End > stack[len(stack)-1].End {
			stack = stack[:len(stack)-1]
		}
		n := &spanNode{span: s}
		parent := stack[len(stack)-1]
		parent.children = append(parent.children, n)
		stack = append(stack, n)
	}
}
