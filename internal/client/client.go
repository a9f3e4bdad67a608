// Package client is the typed Go client of the decision-flow server
// (internal/server, cmd/dfsd). One Client drives either wire the server
// speaks — JSON over pooled HTTP, or the dfbin binary protocol over
// persistent TCP — behind the same method surface: the Transport is
// picked from the address scheme ("http://" vs "dfbin://") or forced
// with WithTransport, and retry-on-shed honoring the server's
// retry-after hint sits above the transports so overload behaves
// identically on both wires. RunLoad paces a remote server with the same
// open/closed-loop pacer (internal/load) as the in-process runtime, so the
// full network stack is benchmarkable end-to-end over either protocol.
package client

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/value"
)

// Transport names.
const (
	// TransportJSON is the JSON/HTTP wire (the server's REST front end).
	TransportJSON = "json-http"
	// TransportBinary is the dfbin length-prefixed binary wire over
	// persistent TCP.
	TransportBinary = "binary"
)

// Options tunes a Client. The zero value is usable; New applies the
// documented defaults. Prefer the With* functional options — the struct
// form survives for the facade's JSON-only shim.
type Options struct {
	// Tenant identifies the caller for admission control: the X-Tenant
	// header on HTTP, the Hello frame's tenant on dfbin; empty means the
	// server's default tenant.
	Tenant string
	// Transport selects the wire: TransportJSON or TransportBinary.
	// Empty infers it from the address scheme.
	Transport string
	// MaxConns bounds pooled connections to the server (0 = 512). The
	// HTTP transport keeps idle connections for reuse, so a closed-loop
	// driver at concurrency C wants MaxConns >= C there; the binary
	// transport multiplexes every request over a small shared pool and
	// uses min(MaxConns, 8) persistent connections.
	MaxConns int
	// RetryShed is how many times a shed request (HTTP 429 / dfbin
	// CodeShed) is retried, backing off per the server's retry-after
	// hint (0 = 3; negative disables).
	RetryShed int
	// MaxRetryWait caps one shed backoff (0 = 2s).
	MaxRetryWait time.Duration
	// Timeout bounds each attempt, connection setup included (0 = 60s).
	Timeout time.Duration
}

// Option mutates Options; the With* constructors below are the vocabulary
// of New.
type Option func(*Options)

// WithTenant sets the tenant identity sent on every request.
func WithTenant(t string) Option { return func(o *Options) { o.Tenant = t } }

// WithTransport forces the wire protocol (TransportJSON or
// TransportBinary) regardless of the address scheme.
func WithTransport(name string) Option { return func(o *Options) { o.Transport = name } }

// WithMaxConns bounds pooled connections.
func WithMaxConns(n int) Option { return func(o *Options) { o.MaxConns = n } }

// WithRetryShed sets the shed retry budget (negative disables retries).
func WithRetryShed(n int) Option { return func(o *Options) { o.RetryShed = n } }

// WithMaxRetryWait caps one shed backoff.
func WithMaxRetryWait(d time.Duration) Option { return func(o *Options) { o.MaxRetryWait = d } }

// WithTimeout bounds each attempt.
func WithTimeout(d time.Duration) Option { return func(o *Options) { o.Timeout = d } }

// Transport is one wire protocol to the server. Implementations perform
// single attempts; the Client layers shed retries on top, so both wires
// share one overload policy. Transports are safe for concurrent use.
type Transport interface {
	// Eval evaluates one instance synchronously.
	Eval(ctx context.Context, req api.EvalRequest) (api.EvalResult, error)
	// EvalBatch evaluates many instances in one round trip (results in
	// request order).
	EvalBatch(ctx context.Context, req api.BatchRequest) ([]api.EvalResult, error)
	// RegisterSchemaText registers a schema written in the text format.
	RegisterSchemaText(ctx context.Context, text string) (api.SchemaResponse, error)
	// Stats fetches the server's metrics.
	Stats(ctx context.Context) (api.StatsResponse, error)
	// Health probes the server; nil means serving.
	Health(ctx context.Context) error
	// Close releases the transport's connections.
	Close() error
}

// Client is a typed handle to one decision-flow server. Safe for
// concurrent use.
type Client struct {
	opts Options
	tr   Transport
}

// ErrShed is wrapped by errors returned for requests still shed after
// every retry; errors.Is(err, ErrShed) detects overload handling.
var ErrShed = errors.New("client: request shed by server")

// ErrDraining is wrapped when the server refused the request because it
// is shutting down.
var ErrDraining = errors.New("client: server draining")

// shedError is a transport's single-attempt shed report: it wraps
// ErrShed and carries the server's retry-after hint, which the Client's
// retry loop honors identically for both wires.
type shedError struct {
	retryAfter time.Duration
	msg        string
}

func (e *shedError) Error() string { return ErrShed.Error() + ": " + e.msg }
func (e *shedError) Unwrap() error { return ErrShed }

// New creates a client for the server at addr, picking the transport
// from the scheme: "http://host:port" (or a bare "host:port") speaks
// JSON over HTTP, "dfbin://host:port" speaks the binary protocol over
// persistent TCP. WithTransport overrides the inference. The binary
// transport dials lazily; New itself never touches the network.
func New(addr string, opts ...Option) (*Client, error) {
	var o Options
	for _, fn := range opts {
		fn(&o)
	}
	o = withDefaults(o)

	scheme, rest := "", addr
	if i := strings.Index(addr, "://"); i >= 0 {
		scheme, rest = addr[:i], addr[i+len("://"):]
	}
	tr := o.Transport
	if tr == "" {
		switch scheme {
		case "dfbin":
			tr = TransportBinary
		case "", "http", "https":
			tr = TransportJSON
		default:
			return nil, fmt.Errorf("client: unknown scheme %q in %q (want http://, https:// or dfbin://)", scheme, addr)
		}
	}
	switch tr {
	case TransportJSON:
		if scheme == "dfbin" {
			return nil, fmt.Errorf("client: address %q is a binary endpoint but the transport is %s", addr, TransportJSON)
		}
		return &Client{opts: o, tr: newHTTPTransport(addr, o)}, nil
	case TransportBinary:
		if scheme != "" && scheme != "dfbin" {
			return nil, fmt.Errorf("client: address %q is not a dfbin:// endpoint but the transport is %s", addr, TransportBinary)
		}
		return &Client{opts: o, tr: newBinTransport(rest, o)}, nil
	default:
		return nil, fmt.Errorf("client: unknown transport %q (want %s or %s)", tr, TransportJSON, TransportBinary)
	}
}

// NewJSON creates a JSON/HTTP-only client from the legacy Options
// struct; it never fails. The facade's NewClient shim keeps this
// surface; new code wants New.
func NewJSON(base string, o Options) *Client {
	o = withDefaults(o)
	o.Transport = TransportJSON
	return &Client{opts: o, tr: newHTTPTransport(base, o)}
}

func withDefaults(o Options) Options {
	if o.MaxConns <= 0 {
		o.MaxConns = 512
	}
	if o.RetryShed == 0 {
		o.RetryShed = 3
	}
	if o.MaxRetryWait <= 0 {
		o.MaxRetryWait = 2 * time.Second
	}
	if o.Timeout <= 0 {
		o.Timeout = 60 * time.Second
	}
	return o
}

// Transport returns the wire protocol this client speaks (TransportJSON
// or TransportBinary).
func (c *Client) Transport() string {
	if _, ok := c.tr.(*binTransport); ok {
		return TransportBinary
	}
	return TransportJSON
}

// Close releases pooled connections.
func (c *Client) Close() { c.tr.Close() }

// retry runs one attempt function under the shared shed-retry policy:
// attempts reporting a shedError are re-run up to RetryShed times,
// sleeping the server's retry-after hint (capped at MaxRetryWait)
// between attempts. Everything else — success, draining, hard errors —
// returns immediately.
func (c *Client) retry(ctx context.Context, attempt func() error) error {
	for n := 0; ; n++ {
		err := attempt()
		var shed *shedError
		if err == nil || !errors.As(err, &shed) || n >= c.opts.RetryShed {
			return err
		}
		wait := shed.retryAfter
		if wait <= 0 {
			wait = 50 * time.Millisecond
		}
		if wait > c.opts.MaxRetryWait {
			wait = c.opts.MaxRetryWait
		}
		timer := time.NewTimer(wait)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return ctx.Err()
		}
	}
}

// RegisterSchemaText registers a schema written in the text format and
// returns the server's acknowledgment.
func (c *Client) RegisterSchemaText(ctx context.Context, text string) (api.SchemaResponse, error) {
	var out api.SchemaResponse
	err := c.retry(ctx, func() error {
		var err error
		out, err = c.tr.RegisterSchemaText(ctx, text)
		return err
	})
	return out, err
}

// Eval evaluates one instance synchronously.
func (c *Client) Eval(ctx context.Context, req api.EvalRequest) (api.EvalResult, error) {
	req.Async = false
	var out api.EvalResult
	err := c.retry(ctx, func() error {
		var err error
		out, err = c.tr.Eval(ctx, req)
		return err
	})
	return out, err
}

// typedEvaler is an optional Transport fast path: a wire whose codec
// speaks value.Value natively (the binary transport) serializes typed
// sources directly, skipping the JSON any-map round trip EvalValues
// otherwise pays per instance.
type typedEvaler interface {
	EvalTyped(ctx context.Context, schema, strategy string, sources map[string]value.Value) (api.EvalResult, error)
}

// EvalValues is Eval over typed source values. On a transport with a
// native typed codec the values go to the wire without JSON conversion.
func (c *Client) EvalValues(ctx context.Context, schema, strategy string, sources map[string]value.Value) (api.EvalResult, error) {
	te, ok := c.tr.(typedEvaler)
	if !ok {
		return c.Eval(ctx, api.EvalRequest{Schema: schema, Strategy: strategy, Sources: api.EncodeSources(sources)})
	}
	var out api.EvalResult
	err := c.retry(ctx, func() error {
		var err error
		out, err = te.EvalTyped(ctx, schema, strategy, sources)
		return err
	})
	return out, err
}

// EvalBatch evaluates many instances in one round trip (results in
// request order).
func (c *Client) EvalBatch(ctx context.Context, req api.BatchRequest) ([]api.EvalResult, error) {
	req.Stream = false
	var out []api.EvalResult
	err := c.retry(ctx, func() error {
		var err error
		out, err = c.tr.EvalBatch(ctx, req)
		return err
	})
	if err != nil {
		return nil, err
	}
	if len(out) != len(req.Sources) {
		return nil, fmt.Errorf("client: batch returned %d results for %d instances", len(out), len(req.Sources))
	}
	return out, nil
}

// Stats fetches the server's metrics.
func (c *Client) Stats(ctx context.Context) (api.StatsResponse, error) {
	return c.tr.Stats(ctx)
}

// Health probes the server; nil means serving.
func (c *Client) Health(ctx context.Context) error {
	return c.tr.Health(ctx)
}

// FleetStats is Stats with peer-fleet aggregation (GET /v1/stats?fleet=1):
// on a node running with -peers the response carries a Fleet view — every
// member's local stats plus fleet-wide counter sums. On a standalone node
// the Fleet field is simply absent. JSON/HTTP only: the binary Stats
// frame deliberately answers locally so fleet fan-out cannot recurse.
func (c *Client) FleetStats(ctx context.Context) (api.StatsResponse, error) {
	ht, err := c.http("FleetStats")
	if err != nil {
		return api.StatsResponse{}, err
	}
	return ht.fleetStats(ctx)
}

// ForwardQuery is one peer-routed backend query: a front-end node asks
// the attribute's home node to run the flight under the home's own
// single-flight and cache tables. The schema is addressed by name +
// fingerprint rather than a bind id because peers share a registry, not
// a connection.
type ForwardQuery struct {
	Schema      string
	Fingerprint uint64
	Attr        uint64
	Args        []byte
	Cost        int
}

// QueryFailedError reports that the home node accepted a forwarded query
// and the flight itself failed there. The forwarder shares the flight's
// fate — the error surfaces to its caller exactly as a local backend
// failure would — and it is not a peer-health signal: the peer answered.
type QueryFailedError struct{ Msg string }

func (e *QueryFailedError) Error() string {
	return "client: forwarded query failed at its home node: " + e.Msg
}

// peerForwarder is the optional Transport capability behind Forward;
// only the binary transport implements it.
type peerForwarder interface {
	Forward(ctx context.Context, q ForwardQuery) error
}

// Forward routes one attribute-level backend query to its home peer and
// waits for the outcome. nil means the home's flight succeeded;
// *QueryFailedError means it ran and failed (shared fate). Any other
// error — refusal codes, transport faults, timeouts — means the query
// did not complete remotely and the caller should fall back to a local
// flight. dfbin only, and deliberately outside the shed-retry policy:
// the peer tier's breaker owns retry decisions.
func (c *Client) Forward(ctx context.Context, q ForwardQuery) error {
	f, ok := c.tr.(peerForwarder)
	if !ok {
		return fmt.Errorf("client: Forward is only served over the %s transport", TransportBinary)
	}
	return f.Forward(ctx, q)
}

// http returns the JSON transport behind the client, or an error for
// the HTTP-only extended surface on a binary client.
func (c *Client) http(method string) (*httpTransport, error) {
	if ht, ok := c.tr.(*httpTransport); ok {
		return ht, nil
	}
	return nil, fmt.Errorf("client: %s is only served over the JSON/HTTP transport", method)
}

// RegisterSchemaShadow registers text as a shadow candidate beside the
// live schema of the same name: the server evaluates it on every
// sampleEvery-th sampled live eval off the latency path and tallies
// divergence (see ShadowReport). sampleEvery < 1 means every eval.
// JSON/HTTP only.
func (c *Client) RegisterSchemaShadow(ctx context.Context, text string, sampleEvery int) (api.SchemaResponse, error) {
	ht, err := c.http("RegisterSchemaShadow")
	if err != nil {
		return api.SchemaResponse{}, err
	}
	var out api.SchemaResponse
	err = c.retry(ctx, func() error {
		var err error
		out, err = ht.registerSchemaShadow(ctx, text, sampleEvery)
		return err
	})
	return out, err
}

// ShadowReport fetches the running live-versus-candidate comparison for
// a schema with a registered shadow. JSON/HTTP only.
func (c *Client) ShadowReport(ctx context.Context, schema string) (api.ShadowReport, error) {
	ht, err := c.http("ShadowReport")
	if err != nil {
		return api.ShadowReport{}, err
	}
	return ht.shadowReport(ctx, schema)
}

// EvalAsync submits one instance and returns its result ID for Result.
// JSON/HTTP only.
func (c *Client) EvalAsync(ctx context.Context, req api.EvalRequest) (string, error) {
	ht, err := c.http("EvalAsync")
	if err != nil {
		return "", err
	}
	req.Async = true
	var id string
	err = c.retry(ctx, func() error {
		var err error
		id, err = ht.evalAsync(ctx, req)
		return err
	})
	return id, err
}

// Result long-polls an async result until it is ready or ctx is done,
// re-polling on server-side timeouts. JSON/HTTP only.
func (c *Client) Result(ctx context.Context, id string) (api.EvalResult, error) {
	ht, err := c.http("Result")
	if err != nil {
		return api.EvalResult{}, err
	}
	return ht.result(ctx, id)
}

// EvalBatchStream evaluates a batch with NDJSON delivery: each result is
// handed to fn as it completes on the server, tagged with its request
// index. fn runs on the reading goroutine. Streamed requests are not
// retried on shed (delivery may have begun); callers wanting retries use
// EvalBatch. JSON/HTTP only.
func (c *Client) EvalBatchStream(ctx context.Context, req api.BatchRequest, fn func(api.BatchItem)) error {
	ht, err := c.http("EvalBatchStream")
	if err != nil {
		return err
	}
	return ht.evalBatchStream(ctx, req, fn)
}
