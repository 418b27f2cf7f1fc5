package main

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"coordattack/internal/store"
)

const testKey = "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"

func TestSelfTimeSubtractsChildCoverageOnce(t *testing.T) {
	// request [0,100): post [0,10) ⊃ submit [2,8); watch [10,100) ⊃
	// engine [20,80), whose child store.put [70,90) overhangs it; and a
	// push [95,120) that outlasts the request.
	spans := []span{
		{Name: "request", Key: testKey, Req: 1, Start: 0, End: 100},
		{Name: "client.post", Key: testKey, Req: 1, Start: 0, End: 10},
		{Name: "http.submit", Key: testKey, Req: 1, Start: 2, End: 8},
		{Name: "client.watch", Key: testKey, Req: 1, Start: 10, End: 100},
		{Name: "service.engine", Key: testKey, Start: 20, End: 80},
		{Name: "queue.append", Key: testKey, Start: 30, End: 40},
		{Name: "store.put", Key: testKey, Start: 35, End: 50},
		{Name: "store.read", Key: testKey, Start: 85, End: 90},
		{Name: "cluster.push", Key: testKey, Start: 95, End: 120},
	}
	trees := buildTrees(spans)
	if len(trees) != 1 {
		t.Fatalf("%d trees, want 1", len(trees))
	}
	self := map[string]time.Duration{}
	parent := map[string]string{}
	var walk func(n *spanNode)
	walk = func(n *spanNode) {
		self[n.Name] = n.selfTime()
		for _, c := range n.children {
			parent[c.Name] = n.Name
			walk(c)
		}
	}
	walk(trees[0])
	want := map[string]time.Duration{
		"request":        0,  // covered by post and watch
		"client.post":    4,  // 10 − submit's 6
		"http.submit":    6,  //
		"client.watch":   25, // 90 − engine's 60 − read's 5
		"service.engine": 40, // 60 − the union [30,50) of its two children
		"queue.append":   10,
		"store.put":      15,
		"store.read":     5,
	}
	for name, d := range want {
		if self[name] != d {
			t.Errorf("self(%s) = %d, want %d", name, self[name], d)
		}
	}
	if _, ok := self["cluster.push"]; ok {
		t.Errorf("the push outlasts its request and must be off the blocking path")
	}
	for child, p := range map[string]string{"http.submit": "client.post", "service.engine": "client.watch", "store.put": "service.engine", "store.read": "client.watch"} {
		if parent[child] != p {
			t.Errorf("parent(%s) = %s, want %s", child, parent[child], p)
		}
	}
}

func TestBuildTreesSeparatesConcurrentRequestsForOneKey(t *testing.T) {
	spans := []span{
		{Name: "request", Key: testKey, Req: 1, Start: 0, End: 100},
		{Name: "request", Key: testKey, Req: 2, Start: 10, End: 90},
		{Name: "http.submit", Key: testKey, Req: 2, Start: 20, End: 30},
		{Name: "http.submit", Key: testKey, Req: 1, Start: 40, End: 95},
	}
	trees := buildTrees(spans)
	for _, root := range trees {
		if len(root.children) != 1 || root.children[0].Req != root.Req {
			t.Fatalf("request %d got children %+v", root.Req, root.children)
		}
	}
}

func TestTracedFSRecordsStorePutAndRead(t *testing.T) {
	tr := newTracer()
	tr.on.Store(true)
	fs := newTracedFS(tr, "store")
	st, err := store.Open(filepath.Join(t.TempDir(), "store"), store.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Put(testKey, []byte(`{"x":1}`)); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(testKey); !ok {
		t.Fatal("stored entry not found")
	}
	names := map[string]string{}
	for _, s := range tr.snapshot() {
		names[s.Name] = s.Key
	}
	if names["store.put"] != testKey || names["store.read"] != testKey {
		t.Fatalf("spans %v, want store.put and store.read keyed %s", names, testKey[:8])
	}
	if n := fs.fsyncs.Load(); n != 2 {
		t.Fatalf("%d fsyncs for one put, want 2 (file and directory)", n)
	}
}

func TestRouteNames(t *testing.T) {
	for _, tc := range []struct{ method, path, name, key string }{
		{"POST", "/v1/jobs", "http.submit", ""},
		{"GET", "/v1/jobs/j000001/watch", "http.watch", ""},
		{"GET", "/v1/peer/results/" + testKey, "http.peer.fetch", testKey},
		{"PUT", "/v1/peer/results/" + testKey, "http.peer.push", testKey},
		{"GET", "/v1/peer/ping", "http.peer.ping", ""},
		{"GET", "/metrics", "http.monitor", ""},
	} {
		name, key := routeName(tc.method, tc.path)
		if name != tc.name || key != tc.key {
			t.Errorf("routeName(%s %s) = %s %s", tc.method, tc.path, name, key)
		}
	}
	if k := findKey([]byte(`{"id":"j1","key":"` + testKey + `","state":"done"}`)); k != testKey {
		t.Errorf("findKey = %q", k)
	}
	if k := findKey([]byte(`{"key":"` + strings.ToUpper(testKey) + `"}`)); k != "" {
		t.Errorf("findKey accepted a non-key %q", k)
	}
}
