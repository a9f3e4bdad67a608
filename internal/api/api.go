// Package api defines the wire protocol of the decision-flow server
// (internal/server, cmd/dfsd): the JSON request/response shapes of the
// /v1 HTTP endpoints and the codec between JSON values and the engine's
// dynamically typed value.Value. Both the server and the typed Go client
// (internal/client) build on this package, so the protocol has exactly one
// definition.
//
// Values map to native JSON: ⟂ ↔ null, bool ↔ bool, int/float ↔ number,
// string ↔ string, list ↔ array. An integral number literal that fits an
// int64 decodes as an Int value, any other number as a Float (1.0 and 1e2
// are Floats), one float64 cannot hold is refused — matching how schema
// sources are typically declared.
//
// The eval path — POST /v1/eval, POST /v1/eval/batch, GET /v1/results/{id},
// the NDJSON stream lines and the client's EvalBatch — has its own JSON
// codec (json.go): a byte-slice scanner that decodes a request's source
// values straight into value.Values and a response's results straight into
// EvalResults, and appenders that render both from typed values. It is
// the path's only codec, and encoding/json is its test oracle; every other
// endpoint (schemas, stats, errors, the shadow report) uses encoding/json.
// Its contract:
//
//   - Encoding is byte-identical to json.Marshal of the same request or
//     result: sorted object keys, the omitempty set, HTML-safe string
//     escaping, float formatting. The one exception is a target value JSON
//     cannot carry (NaN, ±Inf), where json.Marshal fails and lost the whole
//     response: it is sent as null and named in that result's error.
//   - Decoding accepts and rejects exactly the bodies encoding/json does
//     and yields the same values, for bodies whose objects have no
//     repeated key: field names match case-insensitively, unknown fields
//     are skipped (but syntax-checked), null leaves a field unset, strings
//     unquote alike (surrogate pairs, U+FFFD for invalid UTF-8), numbers
//     follow RFC 8259 strictly, nesting stops at 10000 levels.
//   - A repeated key: the last occurrence wins (encoding/json merges a
//     repeated object or array field into what the first one left).
//   - A request body is its first JSON value; bytes after it are ignored,
//     as json.Decoder.Decode ignores them. A response body must be one
//     value and nothing else, as json.Unmarshal demands.
//   - An explicit null source is the same as an absent one: ⟂.
package api

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/value"
)

// TenantHeader carries the caller's tenant on every request; requests
// without it are attributed to DefaultTenant.
const TenantHeader = "X-Tenant"

// DefaultTenant attributes untagged requests.
const DefaultTenant = "anonymous"

// SchemaRequest registers a decision flow schema, written in the text
// format of core.ParseSchema. Foreign tasks of registered schemas are
// served by the backend with a deterministic server-side compute (a hash
// of the task's name and stable inputs), since compute functions cannot
// travel over the wire; synthesis expressions evaluate exactly as written.
type SchemaRequest struct {
	// Text is the schema in the line-oriented text format
	// ("schema <name>\nsource x\nquery y from x cost 2 when x > 0\n…").
	Text string `json:"text"`
	// Shadow registers the schema as a shadow candidate instead of
	// replacing the live version: the server evaluates it alongside live
	// traffic on a sampled fraction of the owning tenant's evals and
	// reports decision divergence on GET /v1/schemas/{name}/shadow. A live
	// version of the same name must already exist.
	Shadow bool `json:"shadow,omitempty"`
	// ShadowSampleEvery sets the shadow sampling stride: every Nth live
	// eval of the schema also runs the candidate (0 or 1 = every eval).
	// Ignored unless Shadow is set.
	ShadowSampleEvery int `json:"shadow_sample_every,omitempty"`
}

// SchemaResponse acknowledges a registration.
type SchemaResponse struct {
	// Name is the registered schema's name (from the text's schema line).
	Name string `json:"name"`
	// Attrs is the number of attributes in the validated schema.
	Attrs int `json:"attrs"`
	// Targets are the schema's target attribute names.
	Targets []string `json:"targets"`
	// Version is the per-name monotone version this registration was
	// assigned (1 for the first registration of a name).
	Version uint64 `json:"version"`
	// Fingerprint is the schema's deterministic text-format hash, in
	// %016x form — the value the durable registry verifies on recovery.
	Fingerprint string `json:"fingerprint"`
	// Shadow echoes whether this registration installed a shadow
	// candidate rather than a new live version.
	Shadow bool `json:"shadow,omitempty"`
}

// EvalRequest evaluates one instance of a registered schema.
type EvalRequest struct {
	// Schema names the registered (or built-in) schema to execute.
	Schema string `json:"schema"`
	// Strategy is the optimization strategy code (e.g. "PSE100"); empty
	// uses the server's default.
	Strategy string `json:"strategy,omitempty"`
	// Sources binds the instance's source attributes (JSON values).
	Sources map[string]any `json:"sources"`
	// Async, when true, makes POST /v1/eval return 202 with an ID
	// immediately; the result is fetched (long-polled) from
	// GET /v1/results/{id}. For slow instances this frees the connection.
	Async bool `json:"async,omitempty"`
}

// EvalResult reports one completed instance.
type EvalResult struct {
	// Values are the target attributes' final values (⟂ as null).
	Values map[string]any `json:"values"`
	// ElapsedMs is the wall-clock latency in milliseconds, submit to
	// terminal snapshot, measured on the server.
	ElapsedMs float64 `json:"elapsed_ms"`
	// Work / WastedWork / Launched / SynthesisRuns / Failures are the
	// instance's accounting (see engine.Result).
	Work          int `json:"work"`
	WastedWork    int `json:"wasted_work,omitempty"`
	Launched      int `json:"launched"`
	SynthesisRuns int `json:"synthesis_runs,omitempty"`
	Failures      int `json:"failures,omitempty"`
	// Error is the instance's terminal error, if any (the HTTP status is
	// still 200: the request was served, the instance failed).
	Error string `json:"error,omitempty"`
}

// AsyncResponse acknowledges an async EvalRequest.
type AsyncResponse struct {
	// ID fetches the result from GET /v1/results/{id}.
	ID string `json:"id"`
}

// PendingResponse is returned by GET /v1/results/{id} when the instance
// has not finished within the long-poll timeout; poll again.
type PendingResponse struct {
	Pending bool `json:"pending"`
}

// BatchRequest evaluates many instances of one schema in a single round
// trip.
type BatchRequest struct {
	// Schema and Strategy apply to every instance of the batch.
	Schema   string `json:"schema"`
	Strategy string `json:"strategy,omitempty"`
	// Sources holds one source binding per instance.
	Sources []map[string]any `json:"sources"`
	// Stream, when true, returns results as NDJSON (one BatchItem line per
	// instance, in completion order) instead of a single BatchResponse —
	// slow instances don't block delivery of finished ones.
	Stream bool `json:"stream,omitempty"`
}

// BatchResponse carries the batch's results, in request order.
type BatchResponse struct {
	Results []EvalResult `json:"results"`
}

// BatchItem is one NDJSON line of a streamed batch: the result tagged
// with its request index.
type BatchItem struct {
	Index int `json:"index"`
	EvalResult
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
	// RetryAfterMs echoes the Retry-After header (in milliseconds) on 429
	// shed responses, for clients that prefer the body.
	RetryAfterMs int64 `json:"retry_after_ms,omitempty"`
}

// StatsResponse is GET /v1/stats: the serving runtime's aggregate metrics
// plus the front end's per-tenant admission view.
type StatsResponse struct {
	// Service is runtime.Stats rendered to JSON (latencies in
	// nanoseconds, as time.Duration serializes).
	Service json.RawMessage `json:"service"`
	// Tenants is the per-tenant admission/shedding view, keyed by tenant.
	Tenants map[string]TenantAdmission `json:"tenants,omitempty"`
	// UptimeMs is milliseconds since the server started.
	UptimeMs int64 `json:"uptime_ms"`
	// Draining reports whether the server is in graceful shutdown.
	Draining bool `json:"draining"`
	// Schemas lists the registered schema names.
	Schemas []string `json:"schemas"`
	// SchemaDetails carries per-schema registry metadata (version,
	// fingerprint, owner), in Schemas order.
	SchemaDetails []SchemaInfo `json:"schema_details,omitempty"`
	// RecoveredSchemas / RecoveryMs report the durable registry's boot
	// replay: how many schemas were rebuilt from the snapshot+WAL and how
	// long the replay took. Absent when the server runs without a datadir.
	RecoveredSchemas int   `json:"recovered_schemas,omitempty"`
	RecoveryMs       int64 `json:"recovery_ms,omitempty"`
	// RegistryReadOnly reports the durable registry's fail-closed state: a
	// WAL write/fsync error (or ENOSPC) degraded the server to serving
	// already-registered schemas only, refusing new registrations until it
	// restarts. RegistryError carries the cause.
	RegistryReadOnly bool   `json:"registry_readonly,omitempty"`
	RegistryError    string `json:"registry_error,omitempty"`
	// Fleet is the peer-aggregated view, present only on
	// GET /v1/stats?fleet=1 from a node running with -peers: the answering
	// node fans the stats query out to every fleet member over dfbin and
	// merges the counters. Each node always answers with its LOCAL view
	// (the binary Stats frame never fans out), so aggregation cannot
	// recurse.
	Fleet *FleetStats `json:"fleet,omitempty"`
	// Capture is the eval capture writer's health, present only when the
	// server runs with -capture. Capture is fail-open (the opposite of the
	// registry's fail-closed read-only state above): drops and disk faults
	// degrade the capture, never serving, and this block is where that
	// degradation becomes visible.
	Capture *CaptureStats `json:"capture,omitempty"`
}

// CaptureStats reports the eval capture writer's counters in /v1/stats.
type CaptureStats struct {
	// Appended counts records durably handed to capture files.
	Appended uint64 `json:"capture_appended"`
	// Dropped is the total records lost (ring full + IO faults) — the
	// headline best-effort counter.
	Dropped uint64 `json:"capture_dropped"`
	// DroppedRing / DroppedIO split Dropped by cause.
	DroppedRing uint64 `json:"capture_dropped_ring"`
	DroppedIO   uint64 `json:"capture_dropped_io"`
	// Files / Bytes size the capture so far.
	Files uint64 `json:"capture_files"`
	Bytes uint64 `json:"capture_bytes"`
	// Degraded is set once any record has been dropped or any file
	// operation failed; Error carries the sticky most-recent IO error.
	Degraded bool   `json:"capture_degraded"`
	Error    string `json:"capture_error,omitempty"`
}

// FleetStats is the peer-tier aggregation in StatsResponse: one entry per
// fleet member (the answering node included) plus fleet-wide counter sums.
type FleetStats struct {
	Nodes  []FleetNode `json:"nodes"`
	Totals FleetTotals `json:"totals"`
}

// FleetNode is one fleet member's slice of a FleetStats aggregation, as
// seen from the answering node.
type FleetNode struct {
	Addr string `json:"addr"`
	Self bool   `json:"self,omitempty"`
	// Err is why this node's stats are missing (unreachable, timeout);
	// its counters are then absent from Totals rather than silently zero.
	Err      string `json:"err,omitempty"`
	Draining bool   `json:"draining,omitempty"`
	// Forwards / Fallbacks / BreakerTrips describe the answering node's
	// link to this peer: queries it forwarded there, local fallbacks it
	// took instead, and how often the link's breaker opened.
	Forwards     uint64 `json:"forwards,omitempty"`
	Fallbacks    uint64 `json:"fallbacks,omitempty"`
	BreakerTrips uint64 `json:"breaker_trips,omitempty"`
	// Service is the node's own runtime.Stats JSON (absent on Err).
	Service json.RawMessage `json:"service,omitempty"`
}

// FleetTotals sums the load-bearing runtime counters across reachable
// nodes. Fleet-wide, Launched == BackendQueries + DedupHits + CacheHits
// holds exactly (per-node PeerForwards/PeerServed cancel pairwise).
type FleetTotals struct {
	Submitted      uint64 `json:"submitted"`
	Completed      uint64 `json:"completed"`
	Errors         uint64 `json:"errors"`
	Launched       uint64 `json:"launched"`
	BackendQueries uint64 `json:"backend_queries"`
	DedupHits      uint64 `json:"dedup_hits"`
	CacheHits      uint64 `json:"cache_hits"`
	PeerForwards   uint64 `json:"peer_forwards"`
	PeerFallbacks  uint64 `json:"peer_fallbacks"`
	PeerServed     uint64 `json:"peer_served"`
}

// SchemaInfo is one registry entry's metadata in StatsResponse.
type SchemaInfo struct {
	Name    string `json:"name"`
	Version uint64 `json:"version"`
	// Fingerprint is the deterministic text-format hash in %016x form.
	Fingerprint string `json:"fingerprint"`
	// Owner is the registering tenant ("" for built-ins).
	Owner string `json:"owner,omitempty"`
	// Shadow reports whether a shadow candidate is currently attached.
	Shadow bool `json:"shadow,omitempty"`
}

// ShadowReport is GET /v1/schemas/{name}/shadow: the running comparison of
// a shadow candidate against the live version it shadows.
type ShadowReport struct {
	Schema string `json:"schema"`
	// LiveVersion / ShadowVersion identify the pair under comparison.
	LiveVersion   uint64 `json:"live_version"`
	ShadowVersion uint64 `json:"shadow_version"`
	// SampleEvery is the sampling stride (every Nth live eval).
	SampleEvery int `json:"sample_every"`
	// Skipped counts sampled evals dropped by the shadow in-flight cap or
	// drain — coverage the report is missing, never silent.
	Skipped uint64 `json:"skipped,omitempty"`
	// Tenants breaks the comparison down per tenant driving the traffic.
	Tenants map[string]ShadowTenant `json:"tenants,omitempty"`
}

// ShadowTenant is one tenant's slice of a shadow comparison.
type ShadowTenant struct {
	// Sampled counts live evals whose candidate evaluation completed.
	Sampled uint64 `json:"sampled"`
	// Diverged counts sampled evals whose target decisions differed
	// (value mismatch on any target, or exactly one side erroring).
	Diverged uint64 `json:"diverged"`
	// Errors counts sampled evals where the candidate erred but live did
	// not (a subset of Diverged).
	Errors uint64 `json:"errors,omitempty"`
	// Examples holds up to a few diverging source vectors for debugging.
	Examples []ShadowExample `json:"examples,omitempty"`
}

// ShadowExample is one diverging eval: the source vector and both sides'
// target values (JSON-encoded like EvalResult.Values).
type ShadowExample struct {
	Sources map[string]any `json:"sources"`
	Live    map[string]any `json:"live"`
	Shadow  map[string]any `json:"shadow"`
	// LiveError / ShadowError carry either side's instance error, if any.
	LiveError   string `json:"live_error,omitempty"`
	ShadowError string `json:"shadow_error,omitempty"`
	// Trace is a readable virtual-time replay of both versions on the
	// diverging source vector — both verdicts, then each side's event
	// timeline — rendered by internal/trace for dark-launch debugging.
	Trace string `json:"trace,omitempty"`
}

// TenantAdmission is one tenant's front-end admission counters. Shed
// requests never reach the runtime, so these live here rather than in
// runtime.Stats (which carries the tenant's completion/latency slice).
type TenantAdmission struct {
	// Accepted counts requests admitted to the runtime.
	Accepted uint64 `json:"accepted"`
	// ShedRate / ShedQuota / ShedQueue count 429s by cause: token-bucket
	// rate limit, in-flight quota, global queueing-delay bound (ShedDelay).
	ShedRate  uint64 `json:"shed_rate,omitempty"`
	ShedQuota uint64 `json:"shed_quota,omitempty"`
	ShedQueue uint64 `json:"shed_queue,omitempty"`
	// InFlight is the tenant's instances currently evaluating.
	InFlight int64 `json:"in_flight"`
}

// --- value codec ---

// ToJSON renders a value.Value as a JSON-marshalable Go value.
func ToJSON(v value.Value) any {
	switch v.Kind() {
	case value.KindNull:
		return nil
	case value.KindBool:
		b, _ := v.AsBool()
		return b
	case value.KindInt:
		i, _ := v.AsInt()
		return i
	case value.KindFloat:
		f, _ := v.AsFloat()
		return f
	case value.KindString:
		s, _ := v.AsString()
		return s
	case value.KindList:
		elems, _ := v.AsList()
		out := make([]any, len(elems))
		for i, e := range elems {
			out[i] = ToJSON(e)
		}
		return out
	default:
		return nil
	}
}

// FromJSON converts a decoded JSON value (as produced by a json.Decoder
// with UseNumber) into a value.Value. Plain float64s (a decoder without
// UseNumber) are accepted too: integral floats become Int values. Native
// int/int64 (what ToJSON emits for Int values) round-trip as well, so a
// client-built source map can pass through either codec unchanged.
func FromJSON(x any) (value.Value, error) {
	switch t := x.(type) {
	case nil:
		return value.Null, nil
	case bool:
		return value.Bool(t), nil
	case string:
		return value.Str(t), nil
	case int:
		return value.Int(int64(t)), nil
	case int64:
		return value.Int(t), nil
	case json.Number:
		if i, err := t.Int64(); err == nil {
			return value.Int(i), nil
		}
		f, err := t.Float64()
		if err != nil {
			return value.Null, fmt.Errorf("api: bad number %q", t.String())
		}
		return value.Float(f), nil
	case float64:
		if t == float64(int64(t)) {
			return value.Int(int64(t)), nil
		}
		return value.Float(t), nil
	case []any:
		elems := make([]value.Value, len(t))
		for i, e := range t {
			v, err := FromJSON(e)
			if err != nil {
				return value.Null, err
			}
			elems[i] = v
		}
		return value.List(elems...), nil
	default:
		return value.Null, fmt.Errorf("api: unsupported JSON value %T", x)
	}
}

// DecodeSources converts a JSON source map into engine source bindings.
func DecodeSources(m map[string]any) (map[string]value.Value, error) {
	out := make(map[string]value.Value, len(m))
	for name, x := range m {
		v, err := FromJSON(x)
		if err != nil {
			return nil, fmt.Errorf("source %q: %w", name, err)
		}
		out[name] = v
	}
	return out, nil
}

// EncodeSources is DecodeSources' inverse, for clients holding typed
// values.
func EncodeSources(m map[string]value.Value) map[string]any {
	out := make(map[string]any, len(m))
	for name, v := range m {
		out[name] = ToJSON(v)
	}
	return out
}

// CleanTenant validates a tenant name from the wire: printable,
// space-free, at most 64 bytes; empty maps to DefaultTenant.
func CleanTenant(raw string) (string, error) {
	if raw == "" {
		return DefaultTenant, nil
	}
	if len(raw) > 64 {
		return "", fmt.Errorf("api: tenant name longer than 64 bytes")
	}
	if strings.ContainsFunc(raw, func(r rune) bool { return r <= ' ' || r == 0x7f }) {
		return "", fmt.Errorf("api: tenant name contains whitespace or control characters")
	}
	return raw, nil
}
