package distrib

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"mcpat/internal/guard"
)

// Client evaluates shards on one remote mcpatd worker by streaming
// POST /v1/dse/shard. It is stateless and safe for concurrent use.
type Client struct {
	// Base is the worker's base URL ("host:port" or "http://host:port").
	Base string
	// HTTP is the underlying client; nil selects http.DefaultClient.
	// Deliberately no client-side timeout by default: a shard's
	// duration is unbounded (cold candidates synthesize whole chips),
	// and liveness comes from the progress frames and ctx instead.
	HTTP *http.Client
}

// NormalizeBase accepts the forms users type for -remote (host:port,
// http://host, trailing slashes) and returns a clean base URL.
func NormalizeBase(s string) string {
	s = strings.TrimRight(strings.TrimSpace(s), "/")
	if s == "" {
		return s
	}
	if !strings.Contains(s, "://") {
		s = "http://" + s
	}
	return s
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// EvalShard runs one shard on the remote worker, forwarding progress
// frames to onProgress (shard-local done/total, like the engine
// callback). Transport errors, non-2xx statuses, malformed frames, and
// streams that end without a terminal frame all return errors — the
// coordinator treats any of them as a worker failure and requeues the
// range.
func (c *Client) EvalShard(ctx context.Context, spec ShardSpec, onProgress func(done, total int)) (*ShardResult, error) {
	body, err := json.Marshal(spec.Wire())
	if err != nil {
		return nil, fmt.Errorf("distrib: encode shard request: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+"/v1/dse/shard", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("distrib: build shard request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, fmt.Errorf("distrib: %s: %w", c.Base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// Pre-stream failures arrive as a plain HTTP error body — for
		// mcpatd, the JSON error envelope with the guard classification,
		// which the returned error keeps. Any other body is reported
		// squashed.
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		var body map[string]*guard.WireError // {"error": {...}}
		var cause error = errors.New(strings.Join(strings.Fields(string(msg)), " "))
		if json.Unmarshal(msg, &body) == nil && body["error"] != nil && body["error"].Message != "" {
			cause = body["error"]
		}
		err := fmt.Errorf("distrib: %s: HTTP %d: %w", c.Base, resp.StatusCode, cause)
		switch resp.StatusCode {
		case http.StatusBadRequest, http.StatusNotFound, http.StatusUnprocessableEntity:
			// The request itself was rejected (bad sweep, bad range, or
			// a remote that is not in worker mode): re-dispatching the
			// same shard cannot succeed, so fail the sweep instead of
			// burning the retry budget.
			return nil, &permanentError{err}
		}
		return nil, err
	}
	dec := json.NewDecoder(resp.Body)
	for {
		var f Frame
		if err := dec.Decode(&f); err != nil {
			if err == io.EOF {
				return nil, fmt.Errorf("distrib: %s: stream ended without a result frame", c.Base)
			}
			return nil, fmt.Errorf("distrib: %s: decode shard stream: %w", c.Base, err)
		}
		switch f.Type {
		case "progress":
			if onProgress != nil {
				onProgress(f.Done, f.Total)
			}
		case "result":
			if f.Result == nil {
				return nil, fmt.Errorf("distrib: %s: result frame without a result", c.Base)
			}
			return f.Result, nil
		case "error":
			if f.Error == nil {
				return nil, fmt.Errorf("distrib: %s: error frame without an error", c.Base)
			}
			return nil, f.Error
		default:
			return nil, fmt.Errorf("distrib: %s: unknown frame type %q", c.Base, f.Type)
		}
	}
}
