package server

// Eval capture: with Config.CaptureDir set, every admitted eval — both
// wires, single and batch — appends one capture record (codec in
// internal/api, writer in internal/capture) from inside its Done
// callback, while the pooled snapshot and slot buffers are still valid.
// The hook encodes into a pooled buffer and hands it to the writer's
// ring; everything slow (disk, rotation, fsync) happens on the writer's
// own goroutine. With capture off the entire cost is one nil check.

import (
	"time"

	"repro/internal/api"
	"repro/internal/capture"
	"repro/internal/engine"
)

// captureEval records one completed eval; the hook runs before the slot
// buffer recycles. The record's source vector is in ascending name order
// on every wire, so identical workloads produce byte-identical captures.
func (s *Server) captureEval(entry *schemaEntry, tenantName string, st engine.Strategy, sb *slotBuf, res *engine.Result) {
	w := s.capture
	if w == nil {
		return
	}
	d := capture.New()
	for i, id := range entry.digestIDs {
		d = d.Target(entry.digestNames[i], res.Snapshot.Val(id))
	}
	msg := ""
	if res.Err != nil {
		msg = res.Err.Error()
	}
	rec := api.CaptureRecord{
		MonoNs:      uint64(time.Since(s.start)),
		WallNs:      uint64(time.Now().UnixNano()),
		Tenant:      tenantName,
		Schema:      entry.schema.Name(),
		Version:     entry.version,
		Fingerprint: entry.fingerprint,
		Strategy:    st.String(),
		Sources:     entry.boundSources(sb),
		Digest:      d.Error(msg).Sum(),
	}
	w.Enqueue(api.AppendCaptureRecord(w.Buf(), &rec))
}

// CaptureStats reports the capture writer's health, or nil when capture
// is off — the /v1/stats block and dfsd's shutdown summary.
func (s *Server) CaptureStats() *api.CaptureStats {
	if s.capture == nil {
		return nil
	}
	st := s.capture.Stats()
	return &api.CaptureStats{
		Appended:    st.Appended,
		Dropped:     st.Dropped(),
		DroppedRing: st.DroppedRing,
		DroppedIO:   st.DroppedIO,
		Files:       st.Files,
		Bytes:       st.Bytes,
		Degraded:    st.Dropped() > 0 || st.Err != "",
		Error:       st.Err,
	}
}
