// Package client is a small Go client for dxserver's HTTP/JSON API. It
// speaks exactly the wire types of internal/server/api and surfaces the
// server's error envelope as *APIError values, so callers can branch on
// the machine-readable code ("timeout", "no_solution", ...) that
// internal/status assigns.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/server/api"
)

// Client calls a dxserver instance.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient is the transport; nil means http.DefaultClient.
	HTTPClient *http.Client
	// Timeout, when positive, bounds each request that arrives with no
	// context deadline of its own. A caller-supplied deadline always wins.
	Timeout time.Duration
}

// New returns a client for the server at baseURL.
func New(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

// APIError is a non-2xx server response.
type APIError struct {
	StatusCode int
	Code       string
	Message    string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("server: %s (%d): %s", e.Code, e.StatusCode, e.Message)
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// withDeadline applies the client's default Timeout when ctx carries no
// deadline. The returned cancel must be called once the response body is
// fully consumed.
func (c *Client) withDeadline(ctx context.Context) (context.Context, context.CancelFunc) {
	if c.Timeout <= 0 {
		return ctx, func() {}
	}
	if _, ok := ctx.Deadline(); ok {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, c.Timeout)
}

// do posts in (when non-nil) to path and decodes the response into out.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	ctx, cancel := c.withDeadline(ctx)
	defer cancel()
	resp, err := c.roundTrip(ctx, method, path, in)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := checkStatus(resp); err != nil {
		return err
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (c *Client) roundTrip(ctx context.Context, method, path string, in any) (*http.Response, error) {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return nil, err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, body)
	if err != nil {
		return nil, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		// Surface cancellation and deadline expiry as the context's own
		// error so callers (and status.Classify) see context.Canceled /
		// DeadlineExceeded instead of a transport-specific wrapper.
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, fmt.Errorf("client: %s %s: %w", method, path, ctxErr)
		}
		return nil, err
	}
	return resp, nil
}

// Forward relays a raw request to the server: cluster members use it to
// hand a scenario-scoped request to its owning node without re-encoding
// it. The response is returned verbatim — non-2xx statuses included, so
// the peer's error envelope (a 409 on a stale base_version, say) passes
// through to the original caller unchanged. Transport-level failures are
// retried with backoff; HTTP responses never are. Close the response body
// to release the request's deadline resources.
func (c *Client) Forward(ctx context.Context, method, path string, header http.Header, body []byte) (*http.Response, error) {
	ctx, cancel := c.withDeadline(ctx)
	var lastErr error
	for attempt := 0; attempt < forwardAttempts; attempt++ {
		if attempt > 0 {
			sleep := forwardBackoff << (attempt - 1)
			if dl, ok := ctx.Deadline(); ok && time.Until(dl) <= sleep {
				// The caller's remaining deadline is smaller than the
				// backoff: sleeping would convert a retryable transport
				// error into a guaranteed deadline expiry. Retry
				// immediately instead — the attempt is cheap and might
				// still land inside the budget.
				sleep = 0
			}
			if sleep > 0 {
				select {
				case <-ctx.Done():
					cancel()
					return nil, fmt.Errorf("client: forward %s %s: %w", method, path, ctx.Err())
				case <-time.After(sleep):
				}
			} else if ctxErr := ctx.Err(); ctxErr != nil {
				cancel()
				return nil, fmt.Errorf("client: forward %s %s: %w", method, path, ctxErr)
			}
		}
		req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, bytes.NewReader(body))
		if err != nil {
			cancel()
			return nil, err
		}
		for k, vs := range header {
			req.Header[k] = vs
		}
		resp, err := c.httpClient().Do(req)
		if err == nil {
			resp.Body = &cancelOnClose{ReadCloser: resp.Body, cancel: cancel}
			return resp, nil
		}
		if ctxErr := ctx.Err(); ctxErr != nil {
			cancel()
			return nil, fmt.Errorf("client: forward %s %s: %w", method, path, ctxErr)
		}
		lastErr = err
	}
	cancel()
	return nil, fmt.Errorf("client: forward %s %s: %d attempts failed: %w", method, path, forwardAttempts, lastErr)
}

const forwardAttempts = 3

const forwardBackoff = 25 * time.Millisecond

// cancelOnClose ties a response body to the deadline context that produced
// it, so the timer is released when the caller finishes reading.
type cancelOnClose struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (b *cancelOnClose) Close() error {
	err := b.ReadCloser.Close()
	b.cancel()
	return err
}

// checkStatus converts a non-2xx response into an *APIError, consuming the
// body.
func checkStatus(resp *http.Response) error {
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		return nil
	}
	defer io.Copy(io.Discard, resp.Body)
	var envelope api.Error
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		return &APIError{StatusCode: resp.StatusCode, Code: "internal",
			Message: fmt.Sprintf("undecodable error body: %v", err)}
	}
	return &APIError{StatusCode: resp.StatusCode, Code: envelope.Err.Code, Message: envelope.Err.Message}
}

// Register registers (or dedupes) a scenario.
func (c *Client) Register(ctx context.Context, req api.RegisterRequest) (api.ScenarioInfo, error) {
	var out api.ScenarioInfo
	err := c.do(ctx, http.MethodPost, "/v1/scenarios", req, &out)
	return out, err
}

// Scenarios lists the registered scenarios.
func (c *Client) Scenarios(ctx context.Context) (api.ScenarioList, error) {
	var out api.ScenarioList
	err := c.do(ctx, http.MethodGet, "/v1/scenarios", nil, &out)
	return out, err
}

// Scenario fetches one scenario's info.
func (c *Client) Scenario(ctx context.Context, id string) (api.ScenarioInfo, error) {
	var out api.ScenarioInfo
	err := c.do(ctx, http.MethodGet, "/v1/scenarios/"+id, nil, &out)
	return out, err
}

// Delete removes a scenario and its cached results.
func (c *Client) Delete(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/v1/scenarios/"+id, nil, nil)
}

// Insert adds source tuples to a live scenario (delta-chased
// incrementally when the scenario's setting allows it).
func (c *Client) Insert(ctx context.Context, id string, req api.MutateRequest) (api.MutateResponse, error) {
	var out api.MutateResponse
	err := c.do(ctx, http.MethodPost, "/v1/scenarios/"+id+"/source/tuples", req, &out)
	return out, err
}

// Remove deletes source tuples from a live scenario (retracting their
// derived consequences via the justification graph when possible).
func (c *Client) Remove(ctx context.Context, id string, req api.MutateRequest) (api.MutateResponse, error) {
	var out api.MutateResponse
	err := c.do(ctx, http.MethodDelete, "/v1/scenarios/"+id+"/source/tuples", req, &out)
	return out, err
}

// Chase runs (or serves the cached) standard chase.
func (c *Client) Chase(ctx context.Context, req api.EvalRequest) (api.ChaseResponse, error) {
	var out api.ChaseResponse
	err := c.do(ctx, http.MethodPost, "/v1/chase", req, &out)
	return out, err
}

// Core computes the minimal CWA-solution (the core).
func (c *Client) Core(ctx context.Context, req api.EvalRequest) (api.InstanceResponse, error) {
	var out api.InstanceResponse
	err := c.do(ctx, http.MethodPost, "/v1/core", req, &out)
	return out, err
}

// CanSol computes the canonical solution.
func (c *Client) CanSol(ctx context.Context, req api.EvalRequest) (api.InstanceResponse, error) {
	var out api.InstanceResponse
	err := c.do(ctx, http.MethodPost, "/v1/cansol", req, &out)
	return out, err
}

// Exists decides Existence-of-CWA-Solutions.
func (c *Client) Exists(ctx context.Context, req api.EvalRequest) (api.ExistsResponse, error) {
	var out api.ExistsResponse
	err := c.do(ctx, http.MethodPost, "/v1/exists", req, &out)
	return out, err
}

// Certain computes certain/maybe answers under the requested semantics.
func (c *Client) Certain(ctx context.Context, req api.EvalRequest) (api.CertainResponse, error) {
	var out api.CertainResponse
	err := c.do(ctx, http.MethodPost, "/v1/certain", req, &out)
	return out, err
}

// Enum streams CWA-solutions, invoking f per solution, and returns the
// final summary line.
func (c *Client) Enum(ctx context.Context, req api.EvalRequest, f func(api.EnumSolution) error) (api.EnumSummary, error) {
	var summary api.EnumSummary
	ctx, cancel := c.withDeadline(ctx)
	defer cancel()
	resp, err := c.roundTrip(ctx, http.MethodPost, "/v1/enum", req)
	if err != nil {
		return summary, err
	}
	defer resp.Body.Close()
	if err := checkStatus(resp); err != nil {
		return summary, err
	}
	// The scanner starts from its small default buffer and grows it only
	// for a longer line, up to the 16 MB cap; most enum responses are a few
	// short lines.
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 16*1024*1024)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		// One decode per line, into the fields of both line kinds: the
		// summary is the line with done set.
		var l struct {
			api.EnumSolution
			api.EnumSummary
		}
		if err := json.Unmarshal(line, &l); err != nil {
			return summary, fmt.Errorf("client: bad NDJSON line %q: %w", line, err)
		}
		if l.Done {
			summary = l.EnumSummary
			continue
		}
		if f != nil {
			if err := f(l.EnumSolution); err != nil {
				return summary, err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return summary, err
	}
	if !summary.Done {
		return summary, fmt.Errorf("client: enum stream ended without a summary line")
	}
	return summary, nil
}

// Health fetches /healthz.
func (c *Client) Health(ctx context.Context) (api.Health, error) {
	var out api.Health
	err := c.do(ctx, http.MethodGet, "/healthz", nil, &out)
	return out, err
}

// Metrics fetches the raw /metricsz text dump.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	ctx, cancel := c.withDeadline(ctx)
	defer cancel()
	resp, err := c.roundTrip(ctx, http.MethodGet, "/metricsz", nil)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if err := checkStatus(resp); err != nil {
		return "", err
	}
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}
