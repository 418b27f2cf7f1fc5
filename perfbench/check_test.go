package main

import (
	"bytes"
	"strings"
	"testing"

	"coordattack/internal/service"
)

// served is an outcome as the client returns it for spec: settled done
// under spec's canonical key, with body as the result.
func served(t *testing.T, spec service.JobSpec, body []byte) outcome {
	t.Helper()
	canon, err := spec.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	return outcome{spec: spec, st: &service.Status{ID: "j1", Key: canon.Key(), State: service.StateDone, Result: body}}
}

var testSpec = service.JobSpec{Protocol: "s:0.1", Graph: "complete:4", Run: "cut:4", Rounds: 10, Trials: 500, Seed: 7}

func TestCheckerRejectsTamperedBody(t *testing.T) {
	canon, err := testSpec.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	body, err := rederive(canon)
	if err != nil {
		t.Fatal(err)
	}
	ck := newChecker()
	outs := []outcome{served(t, testSpec, body), served(t, testSpec, body)}
	tampered := bytes.Replace(body, []byte(`"hits":`), []byte(`"hits":1`), 1)
	outs = append(outs, served(t, testSpec, tampered))
	for i := range outs {
		ck.request(&outs[i])
	}
	if !outs[0].ok() || !outs[1].ok() {
		t.Fatalf("identical bodies failed: %v, %v", outs[0].err, outs[1].err)
	}
	if outs[2].ok() || ck.failed != 1 {
		t.Fatalf("tampered body passed (err %v, failed %d)", outs[2].err, ck.failed)
	}

	// A tampered first body is caught against mc.Estimate instead.
	ck = newChecker()
	o := served(t, testSpec, tampered)
	ck.request(&o)
	if n := ck.rederive([]outcome{o}, 1); n != 1 || ck.failed != 1 {
		t.Fatalf("re-derivation checked %d, failed %d; want 1, 1", n, ck.failed)
	}
	if !strings.Contains(ck.msgs[0], "mc.Estimate") {
		t.Fatalf("message %q", ck.msgs[0])
	}
}

func TestCheckerRejectsMismatchedKey(t *testing.T) {
	ck := newChecker()
	o := served(t, testSpec, []byte(`{}`))
	other := testSpec
	other.Seed++
	o.spec = other // the daemon answered a different spec's key
	ck.request(&o)
	if o.ok() || ck.failed != 1 {
		t.Fatalf("mismatched key passed (err %v, failed %d)", o.err, ck.failed)
	}
}

func TestFailuresCountInErrorRate(t *testing.T) {
	canon, _ := testSpec.Canonicalize()
	body, err := rederive(canon)
	if err != nil {
		t.Fatal(err)
	}
	ck := newChecker()
	w := windowResult{outs: []outcome{served(t, testSpec, body), served(t, testSpec, append([]byte(" "), body...))}}
	for i := range w.outs {
		ck.request(&w.outs[i])
	}
	if ok := w.okOps(); ok != 1 {
		t.Fatalf("%d requests ok, want 1", ok)
	}
	if rate := ratio(float64(ck.failed), float64(len(w.outs))); rate != 0.5 {
		t.Fatalf("error rate %g, want 0.5", rate)
	}
	if n := len(w.latencies()); n != 1 {
		t.Fatalf("failed request in the latency sample (%d samples)", n)
	}
}

func TestExactCheckAgreesWithAnalyze(t *testing.T) {
	spec := testSpec
	spec.Trials = 4000
	canon, _ := spec.Canonicalize()
	body, err := rederive(canon)
	if err != nil {
		t.Fatal(err)
	}
	ck := newChecker()
	if n := ck.exact([]outcome{served(t, spec, body)}); n != 2 || ck.failed != 0 {
		t.Fatalf("exact check: %d intervals, %d failed (%v)", n, ck.failed, ck.msgs)
	}
	// An estimate far from Pr[TA|R] = min(1, ε·ML(R)) must fail.
	wrong := bytes.Replace(body, []byte(`"ta":{"hits":`), []byte(`"ta":{"hits":1`), 1)
	ck = newChecker()
	if ck.exact([]outcome{served(t, spec, wrong)}); ck.failed == 0 {
		t.Fatalf("a wrong TA estimate passed the exact check")
	}
}
