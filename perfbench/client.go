package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"coordattack/internal/service"
)

// client submits jobs over loopback HTTP the way a coordd user does:
// POST /v1/jobs, and for a 202 the watch stream until its terminal line.
type client struct {
	hc  *http.Client
	tr  *tracer // nil when untraced
	seq atomic.Uint64
}

func newClient(tr *tracer) *client {
	return &client{
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        1024,
			MaxIdleConnsPerHost: 512,
			IdleConnTimeout:     time.Minute,
			DisableCompression:  true,
		}},
		tr: tr,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// requestTimeout bounds one request end to end; a request that takes
// longer counts as failed.
const requestTimeout = 60 * time.Second

// outcome is one settled request.
type outcome struct {
	spec    service.JobSpec // as sent
	st      *service.Status // terminal status; nil on failure
	err     error           // transport, status or check failure
	latency time.Duration   // due (or sent) to settled
	fresh   bool            // the request's key had never been submitted
}

func (o outcome) ok() bool { return o.err == nil }

// submit POSTs spec to base and, for a 202, follows the job's watch
// stream. It fails on any non-2xx status or a terminal state other
// than done.
func (c *client) submit(ctx context.Context, base string, spec service.JobSpec) outcome {
	out := outcome{spec: spec}
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	req := c.seq.Add(1)
	start := c.tr.now()
	body, err := json.Marshal(spec)
	if err != nil {
		out.err = err
		return out
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		out.err = err
		return out
	}
	hreq.Header.Set("Content-Type", "application/json")
	if c.tr != nil {
		hreq.Header.Set(reqHeader, strconv.FormatUint(req, 10))
	}
	resp, err := c.hc.Do(hreq)
	if err != nil {
		out.err = err
		return out
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		out.err = err
		return out
	}
	var st service.Status
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		out.err = fmt.Errorf("POST /v1/jobs: %s: %s", resp.Status, bytes.TrimSpace(data))
		return out
	}
	if err := json.Unmarshal(data, &st); err != nil {
		out.err = fmt.Errorf("POST /v1/jobs: decoding status: %w", err)
		return out
	}
	c.tr.add("client.post", st.Key, req, start)
	if !st.State.Terminal() {
		watchStart := c.tr.now()
		term, err := c.watch(ctx, base, st.ID, req)
		if err != nil {
			out.err = err
			return out
		}
		c.tr.add("client.watch", st.Key, req, watchStart)
		st = *term
	}
	c.tr.add("request", st.Key, req, start)
	// The daemon stores and replicates a result as compact JSON; the
	// POST response indents it and the watch stream does not. Compacting
	// restores the stored bytes, which the checks compare.
	var compact bytes.Buffer
	if err := json.Compact(&compact, st.Result); err != nil && len(st.Result) > 0 {
		out.err = fmt.Errorf("job %s: result is not JSON: %w", st.ID, err)
		return out
	}
	st.Result = compact.Bytes()
	out.st = &st
	if st.State != service.StateDone {
		out.err = fmt.Errorf("job %s settled %s: %s", st.ID, st.State, st.Error)
	}
	return out
}

// watch reads /v1/jobs/{id}/watch until the terminal status line.
func (c *client) watch(ctx context.Context, base, id string, req uint64) (*service.Status, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+id+"/watch", nil)
	if err != nil {
		return nil, err
	}
	if c.tr != nil {
		hreq.Header.Set(reqHeader, strconv.FormatUint(req, 10))
	}
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("GET watch %s: %s: %s", id, resp.Status, bytes.TrimSpace(data))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		var st service.Status
		if err := json.Unmarshal(sc.Bytes(), &st); err != nil {
			return nil, fmt.Errorf("watch %s: decoding line: %w", id, err)
		}
		if st.State.Terminal() {
			return &st, nil
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("watch %s: %w", id, err)
	}
	return nil, fmt.Errorf("watch %s: stream ended before a terminal state", id)
}

// get fetches path from base and discards the body; for the monitoring
// scrapes of /metrics and /healthz.
func (c *client) get(ctx context.Context, url string) error {
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return nil
}
