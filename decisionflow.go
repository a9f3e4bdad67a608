// Package decisionflow is a Go implementation of decision flows and the
// optimization techniques of R. Hull, F. Llirbat, B. Kumar, G. Zhou,
// G. Dong and J. Su, "Optimization Techniques for Data-Intensive Decision
// Flows", Proc. ICDE 2000, pp. 281–292.
//
// A decision flow makes an incremental, near-realtime business decision by
// evaluating a DAG of attributes. Each non-source attribute is produced by
// a task — a database query ("foreign task") or a local computation
// ("synthesis task") — guarded by an enabling condition; if the condition
// is false the attribute takes the null value ⟂ and its task never runs.
// Execution completes when every target attribute is stable.
//
// The execution engine implements the paper's optimization space:
//
//   - the Propagation Algorithm ('P'): eager three-valued evaluation of
//     enabling conditions plus forward/backward propagation that detects
//     attributes whose values are unneeded for completion;
//   - speculative execution ('S'): launching tasks whose conditions are
//     still undetermined;
//   - scheduling heuristics: topologically-earliest first ('E') and
//     cheapest first ('C');
//   - bounded parallelism (%Permitted).
//
// A strategy is written as a code such as "PSE80". The package also ships
// the paper's experimental substrate: a deterministic discrete-event
// simulated database (4 CPUs / 10 disks service queues), the Table 1
// schema-pattern generator, the §5 analytical model for finite database
// resources, and guideline maps for choosing a strategy under a work
// budget.
//
// # Quick start
//
//	s := decisionflow.NewBuilder("hello").
//		Source("amount").
//		SynthesisExpr("fee", decisionflow.Cond("amount > 0"), decisionflow.MustParseExpr("amount / 10")).
//		Foreign("decision", decisionflow.Cond("notnull(fee)"), []string{"fee"}, 1,
//			func(in decisionflow.Inputs) decisionflow.Value {
//				return in.Get("fee")
//			}).
//		Target("decision").
//		MustBuild()
//	res := decisionflow.Run(s, decisionflow.Sources{"amount": decisionflow.Int(120)},
//		decisionflow.MustParseStrategy("PSE100"))
//	fmt.Println(res.Snapshot.Val(s.MustLookup("decision").ID()))
//
// See the examples directory for complete programs, DESIGN.md for the
// architecture, and EXPERIMENTS.md for the reproduction of every figure in
// the paper's evaluation.
package decisionflow

import (
	"context"

	"repro/internal/api"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/gen"
	"repro/internal/guideline"
	"repro/internal/mining"
	"repro/internal/model"
	"repro/internal/rules"
	rt "repro/internal/runtime"
	"repro/internal/server"
	"repro/internal/simdb"
	"repro/internal/snapshot"
	"repro/internal/trace"
	"repro/internal/value"
)

// --- Values ---

// Value is a dynamically typed attribute value; the zero Value is the null
// value ⟂.
type Value = value.Value

// Constructors for Value.
var (
	// Null is the distinguished ⟂ value.
	Null = value.Null
	// Bool, Int, Float, Str and List build concrete values.
	Bool  = value.Bool
	Int   = value.Int
	Float = value.Float
	Str   = value.Str
	List  = value.List
)

// Sources maps source-attribute names to their values for one instance.
type Sources = map[string]Value

// --- Conditions and expressions ---

// Expr is an enabling-condition or synthesis expression.
type Expr = expr.Expr

// TrueCond is the always-true enabling condition (an unconditional task).
var TrueCond = expr.TrueExpr

// Cond parses an enabling condition; it panics on syntax errors (conditions
// are code). It is a readable alias of MustParseExpr for call sites where
// the expression is a guard.
func Cond(src string) Expr { return expr.MustParse(src) }

// ParseExpr parses an expression, returning an error on bad syntax.
func ParseExpr(src string) (Expr, error) { return expr.Parse(src) }

// MustParseExpr parses an expression and panics on syntax errors.
func MustParseExpr(src string) Expr { return expr.MustParse(src) }

// --- Schema building ---

// Schema is a validated, flattened decision flow schema.
type Schema = core.Schema

// Builder assembles a schema; see NewBuilder.
type Builder = core.Builder

// Attribute is one node of a decision flow.
type Attribute = core.Attribute

// AttrID is a dense attribute index within one schema.
type AttrID = core.AttrID

// Inputs gives tasks read access to their stable input attributes.
type Inputs = core.Inputs

// ComputeFunc produces a task's value from its inputs; it must be pure.
type ComputeFunc = core.ComputeFunc

// NewBuilder starts a schema definition.
func NewBuilder(name string) *Builder { return core.NewBuilder(name) }

// ParseSchema parses the text schema format (see internal/core.ParseSchema
// for the grammar); foreign-task bindings are attached afterwards with
// Schema.BindCompute.
func ParseSchema(src string) (*Schema, error) { return core.ParseSchema(src) }

// ExprCompute adapts an expression into a task compute function.
func ExprCompute(e Expr) ComputeFunc { return core.ExprCompute(e) }

// ConstCompute returns a compute function producing a fixed value.
func ConstCompute(v Value) ComputeFunc { return core.ConstCompute(v) }

// --- Business rules ---

// Rule is one business rule of a rule-set synthesis task.
type Rule = rules.Rule

// RuleSet is an ordered rule set with a combining policy; use its Task and
// InputAttrs methods to declare a synthesis attribute.
type RuleSet = rules.Set

// RulePolicy states how firing-rule contributions combine.
type RulePolicy = rules.Policy

// Rule combining policies.
const (
	WeightedSum = rules.WeightedSum
	MaxOf       = rules.MaxOf
	MinOf       = rules.MinOf
	FirstWins   = rules.FirstWins
	Collect     = rules.Collect
)

// --- Execution ---

// Strategy selects the optimization options (see ParseStrategy).
type Strategy = engine.Strategy

// Result reports one completed instance: final snapshot, response time,
// work performed, and waste.
type Result = engine.Result

// Engine executes instances over a shared simulator and database; most
// callers want Run instead.
type Engine = engine.Engine

// DB abstracts an external database server (implemented by simdb.Unbounded
// and simdb.Server; bring your own for real integrations).
type DB = engine.DB

// ParseStrategy parses a code like "PSE80" (Propagate/Naive, Speculative/
// Conservative, Earliest/Cheapest, %Permitted).
func ParseStrategy(code string) (Strategy, error) { return engine.ParseStrategy(code) }

// MustParseStrategy is ParseStrategy that panics on bad codes.
func MustParseStrategy(code string) Strategy { return engine.MustParseStrategy(code) }

// Run executes one instance of the schema to completion under the strategy
// (against an unbounded database, so Result.Elapsed is in units of
// processing) and returns its result.
func Run(s *Schema, sources Sources, strategy Strategy) *Result {
	return engine.Run(s, sources, strategy)
}

// Snapshot is an execution snapshot: per-attribute states and values.
type Snapshot = snapshot.Snapshot

// Complete computes the unique complete snapshot of the declarative
// semantics — the oracle every optimized execution must agree with.
func Complete(s *Schema, sources Sources) *Snapshot { return snapshot.Complete(s, sources) }

// CheckAgainstOracle verifies an execution snapshot against the oracle.
func CheckAgainstOracle(exec, oracle *Snapshot) error {
	return snapshot.CheckAgainstOracle(exec, oracle)
}

// --- Wall-clock serving runtime ---

// Service executes many decision flow instances concurrently in wall-clock
// time: a worker pool drives the same engine loop as the simulator, but
// task completions are real events from a Backend. See NewService.
type Service = rt.Service

// ServiceConfig configures a Service (backend, workers, global in-flight
// task admission, query layer).
type ServiceConfig = rt.Config

// QueryConfig configures the service's shared query layer: cross-instance
// batching (size- and deadline-triggered), single-flight deduplication of
// identical in-flight queries, and the sharded SIEVE+TTL attribute-result
// cache. Every launch goes through the layer; the zero value shares and
// batches nothing.
type QueryConfig = rt.QueryConfig

// ServeRequest asks a Service to execute one instance; its Done callback
// receives the Result (valid only during the call — clone what you keep).
type ServeRequest = rt.Request

// ServiceStats aggregates serving metrics: completions, work, and
// wall-clock latency percentiles (p50/p95/p99).
type ServiceStats = rt.Stats

// Backend abstracts the external database in wall-clock time; bring your
// own for real integrations. Its one method, Exec, runs a slice of
// BackendQuery as one combined round trip (one element is a plain query)
// and reports each member's outcome exactly once; a non-nil error
// completes that task as failed (value ⟂). Exec must not retain the slice.
type Backend = rt.Backend

// BackendQuery is one query handed to a Backend: its cost in units of
// processing and its sharing-identity hash (ClusterBackend's shard
// placement key).
type BackendQuery = rt.Query

// InstantBackend completes every query immediately — the engine-side
// throughput ceiling.
type InstantBackend = rt.Instant

// LatencyBackend injects configurable per-query latency on real timers,
// optionally bounding concurrent queries.
type LatencyBackend = rt.Latency

// PacedSimBackend runs the paper's simulated CPU/disk database server
// against the wall clock, so contention emerges under real concurrency.
type PacedSimBackend = rt.PacedSim

// ClusterBackend is a sharded, replicated Backend: N consistent-hash
// shards × R replicas of any Backend, with replica load balancing,
// per-attempt deadlines, retry-with-backoff on a different replica,
// hedged requests, and per-replica circuit breakers. Queries route by
// their sharing-identity hash, so the same logical query always lands on
// the same shard; the query layer (batching/dedup/cache) composes on top.
type ClusterBackend = rt.Cluster

// ClusterConfig configures a ClusterBackend (topology, retries, deadline,
// hedging, breaker).
type ClusterConfig = rt.ClusterConfig

// ClusterStats is the cluster's resilience counters: hedges won, retries,
// timeouts, breaker trips, plus the per-shard/per-replica breakdown.
type ClusterStats = rt.ClusterStats

// ReplicaStats is one replica's traffic view within ClusterStats.
type ReplicaStats = rt.ReplicaStats

// NewClusterBackend builds the shard × replica topology.
func NewClusterBackend(cfg ClusterConfig) *ClusterBackend { return rt.NewCluster(cfg) }

// ServiceLoad describes a load-generation run (Poisson open workload or
// fixed-concurrency closed workload) against a Service.
type ServiceLoad = rt.Load

// LoadReport summarizes a load run: throughput and latency percentiles.
type LoadReport = rt.Report

// NewService starts a wall-clock serving runtime.
func NewService(cfg ServiceConfig) *Service { return rt.New(cfg) }

// NewPacedSimBackend creates a wall-clock-paced simulated database; scale
// is wall-clock milliseconds per virtual millisecond (≤ 0 means 1).
func NewPacedSimBackend(p DBParams, seed int64, scale float64) *PacedSimBackend {
	return rt.NewPacedSim(p, seed, scale)
}

// RunLoad fires a load at the service and reports throughput and latency.
func RunLoad(s *Service, l ServiceLoad) (LoadReport, error) { return rt.RunLoad(s, l) }

// RunLoadContext is RunLoad with cancellation: once ctx is done the
// generator stops submitting, in-flight instances abort, and the partial
// report is returned with ctx.Err().
func RunLoadContext(ctx context.Context, s *Service, l ServiceLoad) (LoadReport, error) {
	return rt.RunLoadContext(ctx, s, l)
}

// TenantStats is one tenant's slice of ServiceStats: completions, errors,
// and latency percentiles over the instances tagged with that tenant.
type TenantStats = rt.TenantStats

// --- Network serving ---

// ServerConfig configures a DecisionServer: the Service to front,
// per-tenant admission limits, and the global queueing-delay shed bound.
type ServerConfig = server.Config

// TenantLimits bounds each tenant's admission at the network front end:
// token-bucket rate limit, burst, and in-flight instance quota.
type TenantLimits = server.TenantLimits

// DecisionServer is the multi-tenant HTTP/JSON front end over a Service:
// schema registration, single/batched/async evaluation, per-tenant rate
// limits and quotas, load shedding with Retry-After, and a graceful drain
// protocol. cmd/dfsd is the daemon wrapper; mount Handler on any
// http.Server.
type DecisionServer = server.Server

// NewServer builds the HTTP front end over cfg.Service.
func NewServer(cfg ServerConfig) *DecisionServer { return server.New(cfg) }

// ServerClient is the typed Go client of a DecisionServer: pooled
// connections, retry-on-shed with the server's retry-after hint, and the
// same open/closed-loop load generator as the in-process runtime. It
// speaks either wire the server serves — JSON over HTTP or the dfbin
// binary protocol over persistent TCP — behind one method surface.
type ServerClient = client.Client

// ClientOptions tunes a ServerClient (tenant tag, pool size, retries).
type ClientOptions = client.Options

// ClientOption is a functional option for Dial (WithTenant,
// WithTransport, ...).
type ClientOption = client.Option

// TransportJSON / TransportBinary name the two wires a ServerClient can
// speak; pass one to WithTransport to override scheme inference.
const (
	TransportJSON   = client.TransportJSON
	TransportBinary = client.TransportBinary
)

// WithTenant tags every request with the tenant name.
func WithTenant(name string) ClientOption { return client.WithTenant(name) }

// WithTransport forces a wire (TransportJSON or TransportBinary)
// instead of inferring it from the address scheme.
func WithTransport(name string) ClientOption { return client.WithTransport(name) }

// WithMaxConns bounds the client's connection pool.
func WithMaxConns(n int) ClientOption { return client.WithMaxConns(n) }

// WithRetryShed sets how many times a shed (429 / overload) response is
// retried with the server's retry-after hint; 0 disables retries.
func WithRetryShed(n int) ClientOption { return client.WithRetryShed(n) }

// Dial creates a client for the server at addr, picking the transport
// from the scheme: "http://host:port" (or bare host:port) speaks
// JSON/HTTP, "dfbin://host:port" speaks the binary protocol.
func Dial(addr string, opts ...ClientOption) (*ServerClient, error) { return client.New(addr, opts...) }

// NewClient creates a JSON/HTTP-only client for the server at base
// (host:port or URL). It is the legacy shim over the options struct;
// Dial is the transport-aware surface.
func NewClient(base string, opts ClientOptions) *ServerClient { return client.NewJSON(base, opts) }

// EvalRequest / EvalResult are the wire shapes of one instance evaluation
// (see internal/api for the full protocol).
type EvalRequest = api.EvalRequest

// EvalResult reports one completed instance over the wire.
type EvalResult = api.EvalResult

// RemoteLoad describes a load run against a remote server through a
// ServerClient — the network analogue of ServiceLoad.
type RemoteLoad = client.Load

// RemoteLoadReport summarizes a remote load run, measured at the client.
type RemoteLoadReport = client.Report

// RunRemoteLoad fires the load at the server through the client;
// cmd/dfserve is the CLI wrapper.
func RunRemoteLoad(ctx context.Context, c *ServerClient, l RemoteLoad) (RemoteLoadReport, error) {
	return client.RunLoad(ctx, c, l)
}

// --- Workloads, database simulation, and planning ---

// OpenWorkload describes a Poisson-arrival multi-instance run against the
// simulated database server (the paper's bounded-resource setting).
type OpenWorkload = engine.OpenWorkload

// WorkloadStats summarizes an open-workload run.
type WorkloadStats = engine.WorkloadStats

// RunOpenWorkload simulates the open system.
func RunOpenWorkload(w OpenWorkload) (WorkloadStats, error) { return engine.RunOpenWorkload(w) }

// MixedWorkload runs several flow classes against one shared database —
// the paper's §6 "several decision flows" scenario.
type MixedWorkload = engine.MixedWorkload

// MixedEntry is one flow class of a mixed workload.
type MixedEntry = engine.MixedEntry

// MixedStats summarizes a mixed-workload run.
type MixedStats = engine.MixedStats

// RunMixedWorkload simulates the mixed open system.
func RunMixedWorkload(w MixedWorkload) (MixedStats, error) { return engine.RunMixedWorkload(w) }

// DBParams configures the simulated database (Table 1 defaults via
// DefaultDBParams).
type DBParams = simdb.Params

// DefaultDBParams returns the paper's Table 1 database configuration:
// 4 CPUs, 10 disks, 1 ms CPU per unit, 1 IO page per unit, 50 % buffer
// hits, 5 ms IO delay.
func DefaultDBParams() DBParams { return simdb.DefaultParams() }

// DbCurve is the measured map from database multiprogramming level to
// per-unit response time (Figure 9(a)).
type DbCurve = simdb.DbCurve

// MeasureDbCurve calibrates the Db function of a database configuration.
func MeasureDbCurve(p DBParams, levels []int, unitsPerLevel int, seed int64) *DbCurve {
	return simdb.MeasureDbCurve(p, levels, unitsPerLevel, seed)
}

// Model is the §5 analytical model for finite database resources.
type Model = model.Model

// NewModel wraps a measured Db curve in the analytical model.
func NewModel(curve *DbCurve) *Model { return model.New(curve) }

// OperatingPoint is a (strategy, Work, TimeInUnits) triple used for
// throughput planning.
type OperatingPoint = model.OperatingPoint

// GuidelineMap is the minT-vs-Work frontier of Figure 8 for one schema
// pattern.
type GuidelineMap = guideline.Map

// BuildGuidelineMap measures a strategy set on a generated pattern and
// assembles its guideline map. Passing nil strategies uses the paper's
// default family.
func BuildGuidelineMap(pattern PatternParams, strategies []string, seeds int) (*GuidelineMap, error) {
	return guideline.Build(pattern, strategies, seeds)
}

// --- Tracing and mining ---

// ExecutionTrace is the timestamped event log of one instance (the §3
// "series of snapshots" made observable).
type ExecutionTrace = trace.Trace

// TraceRecorder captures an ExecutionTrace through engine hooks.
type TraceRecorder = trace.Recorder

// EngineHooks are the engine's observation points (see Engine.Hooks).
type EngineHooks = engine.Hooks

// NewTraceRecorder creates a recorder for instances of the schema; pass
// its Hooks() to an Engine.
func NewTraceRecorder(s *Schema) *TraceRecorder { return trace.NewRecorder(s) }

// MiningCollector accumulates terminal snapshots across instances for the
// §2 snapshot-relation reporting.
type MiningCollector = mining.Collector

// MiningReport is the mined summary (enablement rates, refinement
// findings).
type MiningReport = mining.Report

// NewMiningCollector creates a collector retaining up to
// maxSamplesPerAttr example values per attribute.
func NewMiningCollector(s *Schema, maxSamplesPerAttr int) *MiningCollector {
	return mining.NewCollector(s, maxSamplesPerAttr)
}

// --- Schema pattern generation ---

// PatternParams mirrors Table 1's schema-pattern dimensions.
type PatternParams = gen.Params

// GeneratedPattern bundles a generated schema with its scripted ground
// truth.
type GeneratedPattern = gen.Generated

// DefaultPattern returns Table 1's fixed settings (64 nodes, 4 rows, 75 %
// enabled, costs in [1,5], ...).
func DefaultPattern() PatternParams { return gen.Default() }

// GeneratePattern builds a schema pattern with an exactly realized
// %enabled fraction.
func GeneratePattern(p PatternParams) *GeneratedPattern { return gen.Generate(p) }
