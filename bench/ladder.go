package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	stdruntime "runtime"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/runtime"
	"repro/internal/server"
	"repro/internal/snapshot"
	"repro/internal/value"
)

// The cost ladder pushes the workload's flow and source sequence through
// each layer in this process, from the bare condition programs out to the
// loopback wires, and prices every rung in CPU time and allocations per
// instance. CPU time, not elapsed time, so that rungs with worker
// goroutines compare with single-threaded ones and with the daemon's
// dfsd.cpu_us_per_inst. Every rung from the service up runs over the Instant
// backend: the ladder prices the program's own work, never a wait.
//
// A rung's delta is what it adds over the rung it stands on:
//
//	expr.cond       the condition programs of one instance, run once each
//	engine.core     - expr.cond
//	runtime.service - engine.core
//	runtime.query_hit, query_miss, cluster   - runtime.service
//	api.*_codec     stand alone; their cost is also inside the server rungs
//	server.*        - runtime.service: wire + codec + admission + client

// ladderSeq is how many instances of the source sequence the in-process
// rungs cycle through.
const ladderSeq = 1024

// cost calls chunk, which does a whole number of operations and returns
// how many, for about the budget, in three rounds after a warm-up call.
// It returns the median round's CPU microseconds and allocations per
// operation.
func cost(budget time.Duration, chunk func() int) (us, allocs float64) {
	chunk()
	var uss, als []float64
	var m0, m1 stdruntime.MemStats
	for range 3 {
		stdruntime.ReadMemStats(&m0)
		c0, t0, ops := selfCPU(), time.Now(), 0
		for time.Since(t0) < budget/4 {
			ops += chunk()
		}
		c1 := selfCPU()
		stdruntime.ReadMemStats(&m1)
		uss = append(uss, float64((c1-c0).Nanoseconds())/1e3/float64(ops))
		als = append(als, float64(m1.Mallocs-m0.Mallocs)/float64(ops))
	}
	return median(uss), median(als)
}

// ladder measures every rung and stores cost, _allocs and _delta.
func ladder(cfg runConfig, in *inputs, budget time.Duration, m map[string]float64) error {
	per := budget / time.Duration(len(rungs))
	st := engine.MustParseStrategy(strategy)
	var seq []int32
	for _, r := range in.requests {
		seq = append(seq, r.vectors...)
		if len(seq) >= ladderSeq {
			break
		}
	}
	// The sequence's vectors as typed bindings and as dense source slots.
	sources := map[int32]map[string]value.Value{}
	slots := map[int32][]value.Value{}
	for _, v := range seq {
		if _, ok := sources[v]; ok {
			continue
		}
		sources[v] = in.sources(v)
		slots[v] = make([]value.Value, in.schema.NumAttrs())
		for _, id := range in.schema.Sources() {
			slots[v][id] = sources[v][in.schema.Attr(id).Name]
		}
	}
	put := func(name string, us, allocs, under float64) {
		m[name] = us
		m[name+"_allocs"] = allocs
		m[name+"_delta"] = us - under
	}

	// Condition programs over complete slot views, one machine.
	var progs []*expr.Program
	for id := range in.schema.NumAttrs() {
		if p := in.schema.CondProgram(core.AttrID(id)); p != nil {
			progs = append(progs, p)
		}
	}
	if len(progs) == 0 {
		return fmt.Errorf("flow %s has no compiled condition programs", cfg.w.Flow)
	}
	var views [][]value.Value
	for _, v := range seq[:min(len(seq), 64)] {
		vals, _ := snapshot.Complete(in.schema, sources[v]).Slots()
		views = append(views, vals)
	}
	var mach expr.Machine
	var sink expr.Truth
	us, allocs := cost(per, func() int {
		for _, vals := range views {
			for _, p := range progs {
				sink = p.Eval3(&mach, vals, nil)
			}
		}
		return len(views) * len(progs)
	})
	_ = sink
	condPerInst := us * float64(len(progs))
	m["expr.cond_ns_per_eval"] = us * 1e3
	m["expr.cond_ns_per_eval_allocs"] = allocs
	m["expr.cond_ns_per_eval_delta"] = condPerInst

	// The step loop to quiescence, driven the way the service drives it
	// over an instant database: a batch of instances in flight together,
	// every launch complete at once, and the completions taken first in,
	// first out across the batch, each followed by its instance's
	// Advance. Only the service's queue, locks and pooling are missing;
	// the instances evict each other from the CPU's caches as they do
	// there.
	type completion struct {
		inst int
		id   core.AttrID
	}
	cores := make([]engine.Core, cfg.w.Batch)
	results := make([]engine.Result, cfg.w.Batch)
	var pending []completion
	advance := func(i int) {
		ids, _ := cores[i].Advance()
		for _, id := range ids {
			cores[i].Book(id)
			pending = append(pending, completion{i, id})
		}
	}
	coreUs, allocs := cost(per, func() int {
		for lo := 0; lo+len(cores) <= len(seq); lo += len(cores) {
			pending = pending[:0]
			for i := range cores {
				cores[i].ResetSlots(in.schema, slots[seq[lo+i]], st, &results[i], nil)
				advance(i)
			}
			for k := 0; k < len(pending); k++ {
				c := pending[k]
				cores[c.inst].Complete(c.id, false)
				advance(c.inst)
			}
		}
		return len(seq) / len(cores) * len(cores)
	})
	put("engine.core_us_per_inst", coreUs, allocs, condPerInst)

	// The service and what sits between it and the database. Instances
	// go in batches the size of the workload's requests, the way either
	// wire's batch handler submits them.
	svcUs := 0.0
	for _, r := range []struct {
		name string
		conf runtime.Config
	}{
		{"runtime.service_us_per_inst", runtime.Config{}},
		// Warm: the sequence's identities fit, and cost's warm-up call
		// has put them all in.
		{"runtime.query_hit_us_per_inst", runtime.Config{Query: runtime.QueryConfig{CacheSize: 8192}}},
		// Cold: a cache of one entry per shard, which the cycle through
		// the source sequence evicts before any key comes round again.
		{"runtime.query_miss_us_per_inst", runtime.Config{Query: runtime.QueryConfig{CacheSize: 8}}},
		{"runtime.cluster_us_per_inst", runtime.Config{Backend: runtime.NewCluster(runtime.ClusterConfig{
			Shards: 2, Replicas: 2, New: func(int, int) runtime.Backend { return runtime.Instant{} }})}},
	} {
		svc := runtime.New(r.conf)
		us, allocs := cost(per, func() int { return submitAll(svc, in.schema, seq, slots, st, cfg.w.Batch) })
		svc.Close()
		if cl, ok := r.conf.Backend.(*runtime.Cluster); ok {
			cl.Stop()
		}
		if r.name == "runtime.service_us_per_inst" {
			svcUs = us
			put(r.name, us, allocs, coreUs)
		} else {
			put(r.name, us, allocs, svcUs)
		}
	}

	// The codecs alone: a batch request and its response, encoded and
	// decoded, no socket.
	reqs := in.requests[:min(len(in.requests), ladderSeq/cfg.w.Batch)]
	us, allocs = cost(per, func() int { return binCodec(in, reqs) })
	put("api.bin_batch_codec_us_per_inst", us, allocs, 0)
	us, allocs = cost(per, func() int { return jsonCodec(in, reqs) })
	put("api.json_batch_codec_us_per_inst", us, allocs, 0)

	// The whole stack in one process: server on loopback, one client
	// connection, one request in flight.
	for _, wire := range []string{"dfbin", "http"} {
		lb, err := newLoopback(wire)
		if err != nil {
			return err
		}
		ctx := context.Background()
		var failed error
		us, allocs := cost(per, func() int {
			n := 0
			for i := range reqs {
				results, err := lb.c.EvalBatch(ctx, reqs[i].req)
				if err != nil {
					failed = err
				} else if in.check(&reqs[i], results) != len(results) {
					failed = fmt.Errorf("%s batch rung: wrong answer", wire)
				}
				n += len(reqs[i].vectors)
			}
			return n
		})
		put("server."+wire+"_batch_us_per_inst", us, allocs, svcUs)
		us, allocs = cost(per, func() int {
			for _, v := range seq[:256] {
				res, err := lb.c.EvalValues(ctx, cfg.w.Flow, strategy, sources[v])
				if err != nil {
					failed = err
				} else if res.Error != "" {
					failed = fmt.Errorf("%s single rung: %s", wire, res.Error)
				}
			}
			return 256
		})
		put("server."+wire+"_single_us_per_req", us, allocs, svcUs)
		lb.close()
		if failed != nil {
			return failed
		}
	}
	return nil
}

// submitAll pushes the sequence through the service in batches, waiting
// for each batch the way a batch request does.
func submitAll(svc *runtime.Service, schema *core.Schema, seq []int32, slots map[int32][]value.Value, st engine.Strategy, batch int) int {
	var wg sync.WaitGroup
	done := func(*engine.Result) { wg.Done() }
	for lo := 0; lo < len(seq); lo += batch {
		part := seq[lo:min(lo+batch, len(seq))]
		wg.Add(len(part))
		for _, v := range part {
			if err := svc.Submit(runtime.Request{Schema: schema, SourceSlots: slots[v], Strategy: st, Done: done}); err != nil {
				panic(err) // the service is open for the whole rung
			}
		}
		wg.Wait()
	}
	return len(seq)
}

// loopback is an in-process server on a loopback socket with one client.
type loopback struct {
	c     *client.Client
	svc   *runtime.Service
	srv   *server.Server
	httpd *http.Server
}

func newLoopback(wire string) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	lb := &loopback{svc: runtime.New(runtime.Config{})}
	lb.srv = server.New(server.Config{Service: lb.svc})
	addr := "dfbin://" + ln.Addr().String()
	if wire == "dfbin" {
		go lb.srv.ServeBinary(ln)
	} else {
		addr = "http://" + ln.Addr().String()
		lb.httpd = &http.Server{Handler: lb.srv.Handler()}
		go lb.httpd.Serve(ln)
	}
	lb.c, err = client.New(addr, client.WithTenant(tenant), client.WithMaxConns(1), client.WithRetryShed(-1))
	if err != nil {
		lb.close()
		return nil, err
	}
	return lb, nil
}

func (lb *loopback) close() {
	if lb.c != nil {
		lb.c.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if lb.httpd != nil {
		lb.httpd.Shutdown(ctx)
	}
	lb.srv.Drain(ctx)
	lb.svc.Close()
}

// binCodec encodes and decodes each request as a dfbin EvalBatch frame
// and its answers as a BatchResult frame, with the api package's
// primitives in the order the client and server use them.
func binCodec(in *inputs, reqs []request) int {
	var frame, body []byte
	sources := in.schema.Sources()
	targets := in.schema.Targets()
	slots := make([]value.Value, in.schema.NumAttrs())
	n := 0
	for i := range reqs {
		r := &reqs[i]
		// Request: client side.
		frame = api.BeginFrame(frame[:0], api.FrameEvalBatch)
		frame = api.AppendUvarint(frame, uint64(i)) // request id
		frame = api.AppendUvarint(frame, 1)         // bind id
		frame = api.AppendUvarint(frame, uint64(len(r.vectors)))
		frame = api.AppendUvarint(frame, uint64(len(sources)))
		for _, id := range sources {
			frame = api.AppendUvarint(frame, uint64(id))
		}
		for _, id := range sources {
			name := in.schema.Attr(id).Name
			for _, src := range r.req.Sources {
				v, err := api.FromJSON(src[name])
				if err != nil {
					panic(err) // the sources were encoded from values
				}
				frame = api.AppendValue(frame, v)
			}
		}
		frame = api.FinishFrame(frame, 0)
		// Request: server side, into per-instance slots.
		cur := api.NewCursor(frame[5:])
		cur.Uvarint()
		cur.Uvarint()
		ninst, ncols := int(cur.Uvarint()), int(cur.Uvarint())
		cols := make([]int, ncols)
		for k := range cols {
			cols[k] = int(cur.Uvarint())
		}
		for _, id := range cols {
			for range ninst {
				slots[id] = cur.Value()
			}
		}
		// Response: server side.
		body = api.BeginFrame(body[:0], api.FrameBatchResult)
		body = api.AppendUvarint(body, uint64(i))
		body = api.AppendUvarint(body, uint64(ninst))
		for _, v := range r.vectors {
			body = api.AppendUvarint(body, 250) // elapsed us
			for range 5 {
				body = api.AppendUvarint(body, 3) // work, wasted, launched, synth, failures
			}
			body = api.AppendString(body, "")
			body = api.AppendUvarint(body, uint64(len(targets)))
			for j, id := range targets {
				body = api.AppendUvarint(body, uint64(id))
				body = api.AppendValue(body, in.expected[v][j])
			}
		}
		body = api.FinishFrame(body, 0)
		// Response: client side.
		cur = api.NewCursor(body[5:])
		cur.Uvarint()
		for range cur.Uvarint() {
			for range 6 {
				cur.Uvarint()
			}
			_ = cur.String()
			values := make(map[string]any, len(targets))
			for range cur.Uvarint() {
				id := cur.Uvarint()
				values[in.schema.Attr(core.AttrID(id)).Name] = api.ToJSON(cur.Value())
			}
		}
		if cur.Done() != nil {
			panic("bench: bin codec rung decoded a frame it built wrongly")
		}
		n += len(r.vectors)
	}
	return n
}

// jsonCodec does the same over the HTTP wire's JSON: the request
// marshalled and decoded the server's way (numbers kept as json.Number,
// sources converted to values), the response marshalled and unmarshalled.
func jsonCodec(in *inputs, reqs []request) int {
	n := 0
	for i := range reqs {
		r := &reqs[i]
		data, err := json.Marshal(r.req)
		if err != nil {
			panic(err)
		}
		var req api.BatchRequest
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.UseNumber()
		if err := dec.Decode(&req); err != nil {
			panic(err)
		}
		for _, src := range req.Sources {
			if _, err := api.DecodeSources(src); err != nil {
				panic(err)
			}
		}
		resp := api.BatchResponse{Results: make([]api.EvalResult, len(r.vectors))}
		for k, v := range r.vectors {
			values := make(map[string]any, len(in.targets))
			for j, name := range in.targets {
				values[name] = api.ToJSON(in.expected[v][j])
			}
			resp.Results[k] = api.EvalResult{Values: values, ElapsedMs: 0.25, Work: 3, WastedWork: 3, Launched: 3, SynthesisRuns: 3}
		}
		data, err = json.Marshal(resp)
		if err != nil {
			panic(err)
		}
		var back api.BatchResponse
		if err := json.Unmarshal(data, &back); err != nil {
			panic(err)
		}
		n += len(r.vectors)
	}
	return n
}
