package cloudapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"mlcd/internal/cloud"
)

// Client implements cloud.Provider against a cloudapi server, so MLCD can
// drive a remote control plane with no code changes.
type Client struct {
	base    string
	catalog *cloud.Catalog
	http    *http.Client
}

// NewClient points a provider client at a server base URL (no trailing
// slash). The catalog must match the server's so deployments round-trip.
func NewClient(base string, cat *cloud.Catalog) *Client {
	return &Client{
		base:    base,
		catalog: cat,
		http:    &http.Client{Timeout: 10 * time.Second},
	}
}

// do executes one API call and decodes the response into out.
func (c *Client) do(method, path string, body, out any) error {
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			return fmt.Errorf("cloudapi: encoding request: %w", err)
		}
	}
	req, err := http.NewRequest(method, c.base+path, &buf)
	if err != nil {
		return fmt.Errorf("cloudapi: building request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("cloudapi: %w", err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode >= 400 {
		var e errorJSON
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return fmt.Errorf("cloudapi %s %s: %w (%s)", method, path, errorForStatus(resp.StatusCode), e.Error)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return fmt.Errorf("cloudapi: decoding response: %w", err)
		}
	}
	return nil
}

// errorForStatus inverts the server's status mapping back to the
// cloud package's sentinel errors.
func errorForStatus(code int) error {
	switch code {
	case http.StatusTooManyRequests:
		return cloud.ErrQuotaExceeded
	case http.StatusServiceUnavailable:
		return cloud.ErrTransient
	case http.StatusConflict, http.StatusNotFound:
		return cloud.ErrClusterNotActive
	default:
		return fmt.Errorf("HTTP %d", code)
	}
}

// fromJSONCluster rebuilds a cloud.Cluster from the wire form.
func (c *Client) fromJSONCluster(j clusterJSON) (*cloud.Cluster, error) {
	it, ok := c.catalog.Lookup(j.Type)
	if !ok {
		return nil, fmt.Errorf("cloudapi: server returned unknown type %q", j.Type)
	}
	state := cloud.ClusterPending
	switch j.State {
	case "running":
		state = cloud.ClusterRunning
	case "terminated":
		state = cloud.ClusterTerminated
	}
	return &cloud.Cluster{
		ID:         j.ID,
		Deployment: cloud.Deployment{Type: it, Nodes: j.Nodes},
		State:      state,
		LaunchedAt: time.Duration(j.Launched * float64(time.Second)),
		ReadyAt:    time.Duration(j.Ready * float64(time.Second)),
		StoppedAt:  time.Duration(j.Stopped * float64(time.Second)),
	}, nil
}

// Launch implements cloud.Provider.
func (c *Client) Launch(d cloud.Deployment) (*cloud.Cluster, error) {
	var j clusterJSON
	if err := c.do(http.MethodPost, "/v1/clusters", launchRequest{Type: d.Type.Name, Nodes: d.Nodes}, &j); err != nil {
		return nil, err
	}
	return c.fromJSONCluster(j)
}

// WaitReady implements cloud.Provider.
func (c *Client) WaitReady(cl *cloud.Cluster) error {
	var j clusterJSON
	if err := c.do(http.MethodPost, "/v1/clusters/"+pathEscapeID(cl.ID)+"/wait", nil, &j); err != nil {
		return err
	}
	cl.State = cloud.ClusterRunning
	return nil
}

// Run implements cloud.Provider. The wire protocol carries no typed
// spot interruption, so a run that succeeds consumed exactly dur and a
// refused one consumed nothing.
func (c *Client) Run(cl *cloud.Cluster, dur time.Duration) (time.Duration, error) {
	if dur < 0 {
		panic("cloudapi: negative run duration")
	}
	if err := c.do(http.MethodPost, "/v1/clusters/"+pathEscapeID(cl.ID)+"/run",
		runRequest{Seconds: dur.Seconds()}, nil); err != nil {
		return 0, err
	}
	return dur, nil
}

// Terminate implements cloud.Provider.
func (c *Client) Terminate(cl *cloud.Cluster) error {
	var j clusterJSON
	if err := c.do(http.MethodDelete, "/v1/clusters/"+pathEscapeID(cl.ID), nil, &j); err != nil {
		return err
	}
	cl.State = cloud.ClusterTerminated
	return nil
}

// Now implements cloud.Provider.
func (c *Client) Now() time.Duration {
	var out map[string]float64
	if err := c.do(http.MethodGet, "/v1/time", nil, &out); err != nil {
		return 0
	}
	return time.Duration(out["now_seconds"] * float64(time.Second))
}

// Advance implements cloud.ClockAdvancer: it moves the server's virtual
// clock forward by d (POST /v1/advance), so retry backoffs and breaker
// cooldowns cost no wall time. If the call fails, as against a provider
// that keeps no virtual clock, it sleeps d on the wall clock instead.
func (c *Client) Advance(d time.Duration) {
	if d <= 0 {
		return
	}
	if err := c.do(http.MethodPost, "/v1/advance", runRequest{Seconds: d.Seconds()}, nil); err != nil {
		time.Sleep(d)
	}
}

// TotalBilled implements cloud.Provider.
func (c *Client) TotalBilled() float64 {
	var out map[string]float64
	if err := c.do(http.MethodGet, "/v1/billing", nil, &out); err != nil {
		return 0
	}
	return out["total_usd"]
}

// Catalog fetches the server's instance types.
func (c *Client) Catalog() ([]cloud.InstanceType, error) {
	var types []cloud.InstanceType
	if err := c.do(http.MethodGet, "/v1/catalog", nil, &types); err != nil {
		return nil, err
	}
	return types, nil
}

// Interface conformance checks.
var (
	_ cloud.Provider      = (*Client)(nil)
	_ cloud.ClockAdvancer = (*Client)(nil)
)
