package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/api"
)

// httpTransport speaks the JSON/HTTP wire: connection-pooled HTTP posts
// of the internal/api request shapes. Each method is a single attempt —
// a shed 429 surfaces as a shedError carrying the server's retry-after
// hint, and the Client's shared retry loop decides what to do with it.
type httpTransport struct {
	base   string
	tenant string
	httpc  *http.Client
}

// respPool recycles response body buffers; every decoder copies what it
// keeps out of them.
var respPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func newHTTPTransport(base string, o Options) *httpTransport {
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimRight(base, "/")
	tr := &http.Transport{
		MaxIdleConns:        o.MaxConns,
		MaxIdleConnsPerHost: o.MaxConns,
		MaxConnsPerHost:     o.MaxConns,
		IdleConnTimeout:     90 * time.Second,
	}
	return &httpTransport{
		base:   base,
		tenant: o.Tenant,
		httpc:  &http.Client{Transport: tr, Timeout: o.Timeout},
	}
}

func (t *httpTransport) Close() error {
	t.httpc.CloseIdleConnections()
	return nil
}

func (t *httpTransport) RegisterSchemaText(ctx context.Context, text string) (api.SchemaResponse, error) {
	var out api.SchemaResponse
	err := t.post(ctx, "/v1/schemas", api.SchemaRequest{Text: text}, &out)
	return out, err
}

func (t *httpTransport) Eval(ctx context.Context, req api.EvalRequest) (api.EvalResult, error) {
	var out api.EvalResult
	err := t.post(ctx, "/v1/eval", req, &out)
	return out, err
}

// EvalBatch speaks the eval path's own JSON codec (internal/api/json.go) on
// both legs instead of encoding/json's reflection: the same bytes on the
// wire, the same values back.
func (t *httpTransport) EvalBatch(ctx context.Context, req api.BatchRequest) ([]api.EvalResult, error) {
	body, err := api.AppendBatchRequest(make([]byte, 0, 64+64*len(req.Sources)), &req)
	if err != nil {
		return nil, err
	}
	var out []api.EvalResult
	err = t.send(ctx, "/v1/eval/batch", body, func(data []byte) error {
		var err error
		out, err = api.DecodeBatchResponse(data, len(req.Sources))
		return err
	})
	return out, err
}

func (t *httpTransport) Stats(ctx context.Context) (api.StatsResponse, error) {
	var out api.StatsResponse
	err := t.get(ctx, "/v1/stats", &out)
	return out, err
}

func (t *httpTransport) Health(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.base+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := t.httpc.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("client: health: HTTP %d", resp.StatusCode)
	}
	return nil
}

// --- the HTTP-only extended surface ---

func (t *httpTransport) registerSchemaShadow(ctx context.Context, text string, sampleEvery int) (api.SchemaResponse, error) {
	var out api.SchemaResponse
	err := t.post(ctx, "/v1/schemas",
		api.SchemaRequest{Text: text, Shadow: true, ShadowSampleEvery: sampleEvery}, &out)
	return out, err
}

func (t *httpTransport) fleetStats(ctx context.Context) (api.StatsResponse, error) {
	var out api.StatsResponse
	err := t.get(ctx, "/v1/stats?fleet=1", &out)
	return out, err
}

func (t *httpTransport) shadowReport(ctx context.Context, schema string) (api.ShadowReport, error) {
	var out api.ShadowReport
	err := t.get(ctx, "/v1/schemas/"+schema+"/shadow", &out)
	return out, err
}

func (t *httpTransport) evalAsync(ctx context.Context, req api.EvalRequest) (string, error) {
	var out api.AsyncResponse
	if err := t.post(ctx, "/v1/eval", req, &out); err != nil {
		return "", err
	}
	return out.ID, nil
}

func (t *httpTransport) result(ctx context.Context, id string) (api.EvalResult, error) {
	var out api.EvalResult
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet,
			t.base+"/v1/results/"+id+"?timeout=30s", nil)
		if err != nil {
			return out, err
		}
		t.setHeaders(req)
		resp, err := t.httpc.Do(req)
		if err != nil {
			return out, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return out, err
		}
		switch resp.StatusCode {
		case http.StatusOK:
			return out, json.Unmarshal(body, &out)
		case http.StatusAccepted:
			if ctx.Err() != nil {
				return out, ctx.Err()
			}
			continue // still pending; poll again
		default:
			return out, decodeError(resp, body)
		}
	}
}

func (t *httpTransport) evalBatchStream(ctx context.Context, req api.BatchRequest, fn func(api.BatchItem)) error {
	req.Stream = true
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, t.base+"/v1/eval/batch", bytes.NewReader(body))
	if err != nil {
		return err
	}
	t.setHeaders(hreq)
	resp, err := t.httpc.Do(hreq)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		return decodeError(resp, data)
	}
	dec := json.NewDecoder(resp.Body)
	for i := 0; i < len(req.Sources); i++ {
		var item api.BatchItem
		if err := dec.Decode(&item); err != nil {
			return fmt.Errorf("client: stream ended after %d/%d results: %w", i, len(req.Sources), err)
		}
		fn(item)
	}
	return nil
}

// --- plumbing ---

func (t *httpTransport) setHeaders(req *http.Request) {
	if t.tenant != "" {
		req.Header.Set(api.TenantHeader, t.tenant)
	}
	req.Header.Set("Content-Type", "application/json")
}

// post sends a JSON request and decodes the 2xx response into out. A
// single attempt: shed responses come back as a shedError for the
// Client's retry loop.
func (t *httpTransport) post(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	return t.send(ctx, path, body, func(data []byte) error {
		if out == nil {
			return nil
		}
		return json.Unmarshal(data, out)
	})
}

// send posts an encoded body and hands a 2xx response's body to decode,
// which must not keep the bytes.
func (t *httpTransport) send(ctx context.Context, path string, body []byte, decode func([]byte) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, t.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	t.setHeaders(req)
	resp, err := t.httpc.Do(req)
	if err != nil {
		return err
	}
	buf := respPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer respPool.Put(buf)
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode/100 == 2 {
		return decode(buf.Bytes())
	}
	return decodeError(resp, buf.Bytes())
}

func (t *httpTransport) get(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.base+path, nil)
	if err != nil {
		return err
	}
	t.setHeaders(req)
	resp, err := t.httpc.Do(req)
	if err != nil {
		return err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return decodeError(resp, data)
	}
	return json.Unmarshal(data, out)
}

// retryWait extracts the backoff hint: the millisecond-precise body field
// first, the whole-seconds header as fallback, zero when neither parses
// (the retry loop substitutes its floor).
func retryWait(resp *http.Response, body []byte) time.Duration {
	var e api.ErrorResponse
	if json.Unmarshal(body, &e) == nil && e.RetryAfterMs > 0 {
		return time.Duration(e.RetryAfterMs) * time.Millisecond
	}
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(s); err == nil && secs > 0 {
			return time.Duration(secs) * time.Second
		}
	}
	return 0
}

// decodeError turns a non-2xx response into a typed error.
func decodeError(resp *http.Response, body []byte) error {
	var e api.ErrorResponse
	msg := strings.TrimSpace(string(body))
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		msg = e.Error
	}
	switch resp.StatusCode {
	case http.StatusTooManyRequests:
		return &shedError{retryAfter: retryWait(resp, body), msg: msg}
	case http.StatusServiceUnavailable:
		return fmt.Errorf("%w: %s", ErrDraining, msg)
	default:
		return fmt.Errorf("client: HTTP %d: %s", resp.StatusCode, msg)
	}
}
