package service

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"coordattack/internal/mc"
	"coordattack/internal/store"
)

// slowSweepSpec expands to one slow cell per seed — enough work per
// cell that a cancel lands while the sweep is still in flight.
func slowSweepSpec(seeds []uint64) SweepSpec {
	return SweepSpec{
		Base: JobSpec{Protocol: "s:0.05", Graph: "complete:8", Rounds: 40, Trials: 500_000},
		Axes: SweepAxes{Seeds: seeds},
	}
}

func TestCancelSweepSettlesEveryCell(t *testing.T) {
	s := New(Config{Workers: 1})
	defer drain(t, s)

	st, err := s.SubmitSweep(slowSweepSpec([]uint64{1, 2, 3, 4, 5, 6}))
	if err != nil {
		t.Fatal(err)
	}
	// Let the dispatcher get at least one cell onto a worker first.
	deadline := time.Now().Add(10 * time.Second)
	for {
		cur, err := s.GetSweep(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.Table[0].State == StateRunning || cur.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first cell never started")
		}
		time.Sleep(time.Millisecond)
	}

	if _, err := s.CancelSweep(st.ID); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	fin := waitSweep(t, s, st.ID, 10*time.Second)
	if fin.State != StateCancelled {
		t.Fatalf("cancelled sweep ended %s", fin.State)
	}
	// Every cell is terminal — none left parked "queued" forever, in
	// particular the ones the dispatcher had not yet submitted.
	for i, row := range fin.Table {
		if !row.State.Terminal() {
			t.Errorf("cell %d still %s after sweep cancel", i, row.State)
		}
	}

	// Idempotent on a settled sweep: same terminal status, no error.
	again, err := s.CancelSweep(st.ID)
	if err != nil || again.State != StateCancelled {
		t.Errorf("re-cancel: %+v, %v", again, err)
	}

	// Unknown sweeps are not invented.
	if _, err := s.CancelSweep("sw999999"); err != ErrNotFound {
		t.Errorf("cancel unknown sweep: %v, want ErrNotFound", err)
	}

	// The freed workers pick up new jobs immediately.
	job, err := s.Submit(JobSpec{Protocol: "s:0.5", Rounds: 2, Trials: 300, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitState(t, s, job.ID, 10*time.Second); fin.State != StateDone {
		t.Errorf("post-cancel job ended %s, want done", fin.State)
	}
}

func TestHTTPSweepCancel(t *testing.T) {
	_, ts := testHTTPServer(t, Config{Workers: 1})

	body := `{"base": {"protocol": "s:0.05", "graph": "complete:8", "rounds": 40, "trials": 500000},
	          "axes": {"seeds": [1, 2, 3, 4]}}`
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st SweepStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST code %d", resp.StatusCode)
	}

	del := func(id string) (int, *SweepStatus) {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweeps/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out SweepStatus
		if resp.StatusCode < 300 {
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode, &out
	}

	if code, _ := del(st.ID); code != http.StatusOK {
		t.Fatalf("DELETE code %d, want 200", code)
	}
	var fin SweepStatus
	deadline := time.Now().Add(10 * time.Second)
	for {
		if getJSON(t, ts.URL+"/v1/sweeps/"+st.ID, &fin) != http.StatusOK {
			t.Fatal("poll failed")
		}
		if fin.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep stuck in %s after DELETE", fin.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if fin.State != StateCancelled {
		t.Errorf("sweep ended %s, want cancelled", fin.State)
	}

	// Idempotent second DELETE on the settled sweep.
	if code, again := del(st.ID); code != http.StatusOK || again.State != StateCancelled {
		t.Errorf("re-DELETE code %d state %s", code, again.State)
	}
	if code, _ := del("sw999999"); code != http.StatusNotFound {
		t.Errorf("DELETE unknown sweep code %d, want 404", code)
	}
}

// TestHTTPAdminStore drives the store admin surface through a degrade →
// rescan-recover cycle and checks the store-less 404.
func TestHTTPAdminStore(t *testing.T) {
	parent := t.TempDir()
	dir := filepath.Join(parent, "store")
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := testHTTPServer(t, Config{Workers: 1, Store: st})

	var health struct {
		Degraded   bool                    `json:"degraded"`
		Entries    int                     `json:"entries"`
		Recoveries int64                   `json:"recoveries"`
		Quarantine []store.QuarantineEntry `json:"quarantine"`
	}
	if code := getJSON(t, ts.URL+"/v1/admin/store", &health); code != http.StatusOK || health.Degraded {
		t.Fatalf("healthy admin/store: code %d %+v", code, health)
	}
	if health.Quarantine == nil {
		t.Error("quarantine is null, want []")
	}

	// Break the disk out from under the store, force a write so it
	// demotes, and watch the admin surface report it.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(strings.Repeat("a", 64), []byte("x")); err == nil {
		t.Fatal("Put on broken root succeeded")
	}
	if code := getJSON(t, ts.URL+"/v1/admin/store", &health); code != http.StatusOK || !health.Degraded {
		t.Fatalf("degraded admin/store: code %d %+v", code, health)
	}

	// Heal the disk; POST rescan recovers without a restart.
	if err := os.Remove(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/admin/store/rescan", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var rep store.RescanReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !rep.Recovered || rep.Degraded {
		t.Errorf("rescan code %d report %+v, want recovery", resp.StatusCode, rep)
	}
	if code := getJSON(t, ts.URL+"/v1/admin/store", &health); code != http.StatusOK || health.Degraded || health.Recoveries < 1 {
		t.Errorf("post-rescan admin/store: code %d %+v", code, health)
	}
}

func TestHTTPAdminStoreDisabled(t *testing.T) {
	_, ts := testHTTPServer(t, Config{Workers: 1})
	if code := getJSON(t, ts.URL+"/v1/admin/store", nil); code != http.StatusNotFound {
		t.Errorf("admin/store without a store: code %d, want 404", code)
	}
	resp, err := http.Post(ts.URL+"/v1/admin/store/rescan", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("rescan without a store: code %d, want 404", resp.StatusCode)
	}
}

// TestCancelSweepBetweenAdmitAndRecord parks the dispatcher after the
// first cell's job is admitted but before its id is recorded on the
// cell, and cancels the sweep inside that window. CancelSweep then sees
// no job id on the cell, so the dispatcher itself must cancel the job.
// The engine only returns once its job is cancelled, so a job nobody
// cancels never settles and the sweep stays running.
func TestCancelSweepBetweenAdmitAndRecord(t *testing.T) {
	s := New(Config{Workers: 1, WrapEngine: func(string, RunFunc) RunFunc {
		return func(ctx context.Context, _ JobSpec, _ int, _ func(mc.Snapshot)) (json.RawMessage, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		}
	}})
	defer drain(t, s)
	parked, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	s.cellAdmitted = func() {
		once.Do(func() {
			close(parked)
			<-release
		})
	}

	st, err := s.SubmitSweep(slowSweepSpec([]uint64{1, 2}))
	if err != nil {
		t.Fatal(err)
	}
	<-parked
	if _, err := s.CancelSweep(st.ID); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	close(release)

	fin := waitSweep(t, s, st.ID, 5*time.Second)
	if fin.State != StateCancelled {
		t.Fatalf("sweep ended %s, want cancelled", fin.State)
	}
	first := fin.Table[0]
	if first.JobID == "" {
		t.Fatal("the admitted cell has no job id")
	}
	if js, err := s.Get(first.JobID); err != nil || js.State != StateCancelled {
		t.Fatalf("admitted cell's job = %+v, %v; want cancelled", js, err)
	}
}
