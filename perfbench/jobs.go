package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/runner"
	"repro/internal/scenario"
)

// client talks to midas-serve's job API over one connection: the
// benchmark's load comes from a single closed-loop client.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	return &client{
		hc: &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		},
		base: base,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// jobStatus is the subset of midas-serve's job status the benchmark
// reads.
type jobStatus struct {
	ID        string `json:"id"`
	SpecHash  string `json:"spec_hash"`
	State     string `json:"state"`
	CacheTier string `json:"cache_tier"`
	Error     string `json:"error"`
}

// jobRun is one job driven to its result body.
type jobRun struct {
	status         jobStatus
	body           []byte
	submit, result time.Duration
	polls, retries int
}

const (
	// maxRetries bounds resubmissions after a 503 (queue full).
	maxRetries = 5
	// pollInterval is the job status poll interval. The API has no
	// blocking wait, so makespans are quantized by this much; it
	// stays well under the ~0.4 s makespan of a sweep.
	pollInterval = 2 * time.Millisecond
)

// runJob submits spec, polls its status every pollInterval until it
// is done, and fetches the result body. Only a full queue (503) is
// retried.
func (c *client) runJob(spec []byte) (jobRun, error) {
	var r jobRun
	for {
		t := time.Now()
		code, body, err := c.do(http.MethodPost, "/v1/jobs", spec)
		r.submit = time.Since(t)
		if err != nil {
			return r, err
		}
		if code == http.StatusServiceUnavailable && r.retries < maxRetries {
			r.retries++
			time.Sleep(time.Duration(5<<r.retries) * time.Millisecond)
			continue
		}
		if code != http.StatusOK && code != http.StatusAccepted {
			return r, fmt.Errorf("submit: HTTP %d: %s", code, body)
		}
		if err := json.Unmarshal(body, &r.status); err != nil {
			return r, fmt.Errorf("submit: %v", err)
		}
		break
	}
	for r.status.State != "done" {
		if r.status.State == "failed" || r.status.State == "cancelled" {
			return r, fmt.Errorf("job %s %s: %s", r.status.ID, r.status.State, r.status.Error)
		}
		time.Sleep(pollInterval)
		r.polls++
		code, body, err := c.do(http.MethodGet, "/v1/jobs/"+r.status.ID, nil)
		if err != nil {
			return r, err
		}
		if code != http.StatusOK {
			return r, fmt.Errorf("status %s: HTTP %d: %s", r.status.ID, code, body)
		}
		if err := json.Unmarshal(body, &r.status); err != nil {
			return r, fmt.Errorf("status %s: %v", r.status.ID, err)
		}
	}
	t := time.Now()
	body, err := c.get("/v1/jobs/" + r.status.ID + "/result")
	r.result = time.Since(t)
	r.body = body
	return r, err
}

// get fetches path, which must answer 200.
func (c *client) get(path string) ([]byte, error) {
	code, body, err := c.do(http.MethodGet, path, nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d: %s", path, code, body)
	}
	return body, nil
}

func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// specJSON encodes a spec as a submission body.
func specJSON(s scenario.Spec) []byte {
	b, err := json.Marshal(s)
	if err != nil {
		panic(err) // a Spec always marshals
	}
	return b
}

// resolve resolves overrides against their scenario.
func resolve(overrides scenario.Spec) (scenario.Scenario, scenario.Spec, error) {
	sc, err := scenario.Find(overrides.Scenario)
	if err != nil {
		return nil, scenario.Spec{}, err
	}
	spec, err := scenario.Resolve(sc, overrides)
	return sc, spec, err
}

// localRun is one in-process run of a spec.
type localRun struct {
	body   []byte
	wall   time.Duration
	allocs uint64
}

// localBody runs overrides in process and renders the result the way
// midas-serve renders a job result, under its tool name, so a served
// body must match it byte for byte. The wall time and allocation
// count cover RunResolved.
func localBody(overrides scenario.Spec) (localRun, error) {
	sc, spec, err := resolve(overrides)
	if err != nil {
		return localRun{}, err
	}
	a, t := heapAllocs(), time.Now()
	res, err := scenario.RunResolved(context.Background(), sc, spec, scenario.RunOptions{})
	r := localRun{wall: time.Since(t), allocs: heapAllocs() - a}
	if err != nil {
		return r, err
	}
	r.body, err = runner.RenderJSON(spec.SinkMeta("midas-serve"), res.RunnerResult())
	return r, err
}
