package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"condorj2/internal/core"
	"condorj2/internal/experiments"
	"condorj2/internal/sqldb"
	"condorj2/internal/wire"
)

// metric is one reported figure. A reference figure is printed but kept
// out of the JSON result: it is a time that reads exactly 0 on every run
// of a workload without the mechanism (no lock waits, no pager).
type metric struct {
	name  string
	unit  string
	value float64
	ref   bool
}

// statsSnap is a snapshot of the engine's and the gate's counters.
type statsSnap struct {
	wal  sqldb.WALStats
	plan sqldb.PlanCacheStats
	lock sqldb.LockStats
	bp   sqldb.BufferPoolStats
	adm  wire.AdmissionStats
}

func snapStats(in *instance) statsSnap {
	return statsSnap{
		wal:  in.eng.WALStats(),
		plan: in.eng.PlanCacheStats(),
		lock: in.eng.LockStats(),
		bp:   in.eng.BufferPoolStats(),
		adm:  in.cas.AdmissionStats(),
	}
}

// counters sums counter deltas over the traced rounds.
type counters struct {
	commits, syncs, walBytes       uint64
	commitWait                     time.Duration
	planHits, planMisses           uint64
	lockWaits, deadlocks           uint64
	lockWait                       time.Duration
	hits, misses, evictions, dirty uint64
	pageWrites                     uint64
	queued                         uint64
}

func (c *counters) add(a, b statsSnap) {
	c.commits += b.wal.Commits - a.wal.Commits
	c.syncs += b.wal.Syncs - a.wal.Syncs
	c.walBytes += b.wal.BytesWritten - a.wal.BytesWritten
	c.commitWait += b.wal.CommitWait - a.wal.CommitWait
	c.planHits += b.plan.Hits - a.plan.Hits
	c.planMisses += b.plan.Misses - a.plan.Misses
	c.lockWaits += b.lock.Waited - a.lock.Waited
	c.deadlocks += b.lock.Deadlocks - a.lock.Deadlocks
	c.lockWait += b.lock.WaitTime - a.lock.WaitTime
	c.hits += b.bp.Hits - a.bp.Hits
	c.misses += b.bp.Misses - a.bp.Misses
	c.evictions += b.bp.Evictions - a.bp.Evictions
	c.dirty += b.bp.DirtyWrites - a.bp.DirtyWrites
	c.pageWrites += b.bp.PageWrites - a.bp.PageWrites
	c.queued += b.adm.Queued - a.adm.Queued
}

// opAgg is one traced operation's spans folded together.
type opAgg struct {
	act                         action
	calls                       int
	client, server, stmt, commt int64 // ns
	stmts, rows, affected       int64
	writes                      int64
	reqBytes, respBytes         int64
}

// layerReport holds the per-action split of the traced rounds.
type layerReport struct {
	ops          [numActs]int
	sum          [numActs]opAgg // summed over the action's operations
	codecServer  [numActs]float64
	codecClient  [numActs]float64 // ns per call
	allocsServer [numActs]float64
	allocsClient [numActs]float64
	callsPerOp   [numActs]float64
	commitUs     float64 // mean commit of a writing transaction
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// fold turns the tracer's spans into per-action means and replays the
// captured exchanges through the codec.
func (t *tracer) fold() (*layerReport, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ops := map[uint64]*opAgg{}
	get := func(s *span) *opAgg {
		o := ops[s.req]
		if o == nil {
			o = &opAgg{act: s.act}
			ops[s.req] = o
		}
		return o
	}
	var commitNs, commits int64
	for i := range t.spans {
		s := &t.spans[i]
		o, d := get(s), s.end-s.start
		switch s.kind {
		case spanClient:
			o.calls++
			o.client += d
			o.reqBytes += s.reqBytes
			o.respBytes += s.respBytes
		case spanServer, spanCycle:
			o.server += d
		case spanStmt:
			o.stmt += d
			o.stmts++
			o.rows += s.rows
			o.affected += s.affected
			if s.write {
				o.writes++
			}
		case spanCommit:
			o.commt += d
			if s.write {
				commitNs += d
				commits++
			}
		}
	}
	r := &layerReport{commitUs: safeDiv(float64(commitNs), float64(commits)) / 1e3}
	for _, o := range ops {
		a := o.act
		r.ops[a]++
		s := &r.sum[a]
		s.calls += o.calls
		s.client += o.client
		s.server += o.server
		s.stmt += o.stmt
		s.commt += o.commt
		s.stmts += o.stmts
		s.rows += o.rows
		s.affected += o.affected
		s.writes += o.writes
		s.reqBytes += o.reqBytes
		s.respBytes += o.respBytes
	}
	for a := action(0); a < numActs; a++ {
		if r.ops[a] == 0 {
			continue
		}
		r.callsPerOp[a] = r.per(a, int64(r.sum[a].calls))
		var err error
		r.codecServer[a], r.codecClient[a], r.allocsServer[a], r.allocsClient[a], err = replayCodec(t.captures[a])
		if err != nil {
			return nil, err
		}
	}
	return r, nil
}

// per divides a sum over action a's traced operations by their number.
func (r *layerReport) per(a action, sum int64) float64 {
	return safeDiv(float64(sum), float64(r.ops[a]))
}

func payloadTypes(action string) (req, resp any, err error) {
	switch action {
	case core.ActionSubmitJob:
		return new(core.SubmitRequest), new(core.SubmitResponse), nil
	case core.ActionHeartbeat:
		return new(core.HeartbeatRequest), new(core.HeartbeatResponse), nil
	case core.ActionAcceptMatch:
		return new(core.AcceptMatchRequest), new(core.AcceptMatchResponse), nil
	case core.ActionPoolStatus:
		return new(core.PoolStatusRequest), new(core.PoolStatusResponse), nil
	case core.ActionQueueStatus:
		return new(core.QueueStatusRequest), new(core.QueueStatusResponse), nil
	}
	return nil, nil, fmt.Errorf("codec replay: no payload types for %q", action)
}

const codecReps = 20

// replayCodec runs the captured exchanges back through wire.Encode,
// wire.Decode and wire.DecodePayload: the server's half (decode the
// request, encode the response) and the client's half (encode the
// request, decode the response). It returns ns and allocations per call
// for each half.
func replayCodec(caps []captured) (serverNs, clientNs, serverAllocs, clientAllocs float64, err error) {
	if len(caps) == 0 {
		return 0, 0, 0, 0, nil
	}
	type decoded struct{ req, resp any }
	dec := make([]decoded, len(caps))
	for i, c := range caps {
		req, resp, err := payloadTypes(c.action)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		for _, m := range []struct {
			data []byte
			out  any
		}{{c.req, req}, {c.resp, resp}} {
			env, err := wire.Decode(m.data)
			if err != nil {
				return 0, 0, 0, 0, err
			}
			if err := wire.DecodePayload(env, m.out); err != nil {
				return 0, 0, 0, 0, err
			}
		}
		dec[i] = decoded{req, resp}
	}
	measure := func(fn func(c captured, d decoded) error) (float64, float64, error) {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		for rep := 0; rep < codecReps; rep++ {
			for i, c := range caps {
				if err := fn(c, dec[i]); err != nil {
					return 0, 0, err
				}
			}
		}
		d := time.Since(t0)
		runtime.ReadMemStats(&ms1)
		n := float64(codecReps * len(caps))
		return float64(d) / n, float64(ms1.Mallocs-ms0.Mallocs) / n, nil
	}
	serverNs, serverAllocs, err = measure(func(c captured, d decoded) error {
		env, err := wire.Decode(c.req)
		if err != nil {
			return err
		}
		req, _, _ := payloadTypes(c.action)
		if err := wire.DecodePayload(env, req); err != nil {
			return err
		}
		_, err = wire.Encode(c.action+"Response", d.resp)
		return err
	})
	if err != nil {
		return 0, 0, 0, 0, err
	}
	clientNs, clientAllocs, err = measure(func(c captured, d decoded) error {
		if _, err := wire.Encode(c.action, d.req); err != nil {
			return err
		}
		env, err := wire.Decode(c.resp)
		if err != nil {
			return err
		}
		_, resp, _ := payloadTypes(c.action)
		return wire.DecodePayload(env, resp)
	})
	return serverNs, clientNs, serverAllocs, clientAllocs, err
}

// wireActs are the actions that cross the wire; schedule runs in-process.
var wireActs = []action{actSubmit, actHeartbeat, actAccept, actComplete, actStatus}

// layerMetrics lists every per-layer metric in report order.
func layerMetrics(r *layerReport, c *counters, b *bench, tracedCalls int, replayBytes int, overheadPct float64) []metric {
	var out []metric
	add := func(name, unit string, v float64) { out = append(out, metric{name: name, unit: unit, value: v}) }
	ref := func(name, unit string, v float64) {
		out = append(out, metric{name: name, unit: unit, value: v, ref: true})
	}
	us := func(a action, ns int64) float64 { return r.per(a, ns) / 1e3 }
	for _, a := range wireActs {
		add("wire.server_us."+a.String(), "us", us(a, r.sum[a].server))
	}
	for _, a := range wireActs {
		add("wire.transport_us."+a.String(), "us", us(a, r.sum[a].client-r.sum[a].server))
	}
	for _, a := range wireActs {
		add("wire.codec_us."+a.String(), "us", (r.codecServer[a]+r.codecClient[a])*r.callsPerOp[a]/1e3)
	}
	for _, a := range wireActs {
		add("wire.codec_allocs."+a.String(), "count", (r.allocsServer[a]+r.allocsClient[a])*r.callsPerOp[a])
	}
	for _, a := range wireActs {
		add("wire.req_bytes."+a.String(), "B", r.per(a, r.sum[a].reqBytes))
	}
	for _, a := range wireActs {
		add("wire.resp_bytes."+a.String(), "B", r.per(a, r.sum[a].respBytes))
	}
	add("wire.admission_queued", "count", float64(c.queued))
	for a := action(0); a < numActs; a++ {
		s := r.sum[a]
		add("core.self_us."+a.String(), "us", us(a, s.server-s.stmt-s.commt)-r.codecServer[a]*r.callsPerOp[a]/1e3)
	}
	for a := action(0); a < numActs; a++ {
		add("core.stmts."+a.String(), "count", r.per(a, r.sum[a].stmts))
	}
	add("core.match_yield", "ratio", safeDiv(float64(b.matchYield[0]), float64(b.matchYield[1])))
	for a := action(0); a < numActs; a++ {
		add("sqldb.stmt_us."+a.String(), "us", us(a, r.sum[a].stmt))
	}
	for a := action(0); a < numActs; a++ {
		add("sqldb.rows_examined."+a.String(), "count", r.per(a, r.sum[a].rows))
	}
	add("sqldb.commit_us", "us", r.commitUs)
	add("sqldb.wal_commit_wait_us", "us", safeDiv(float64(c.commitWait.Microseconds()), float64(c.commits)))
	add("sqldb.wal_bytes_per_commit", "B", safeDiv(float64(c.walBytes), float64(c.commits)))
	add("sqldb.fsyncs_per_commit", "count", safeDiv(float64(c.syncs), float64(c.commits)))
	add("sqldb.plan_cache_hit_ratio", "ratio", safeDiv(float64(c.planHits), float64(c.planHits+c.planMisses)))
	add("sqldb.lock_waits_per_call", "count", safeDiv(float64(c.lockWaits), float64(tracedCalls)))
	ref("sqldb.lock_wait_us", "us", safeDiv(float64(c.lockWait.Microseconds()), float64(tracedCalls)))
	add("sqldb.deadlocks", "count", float64(c.deadlocks))
	add("sqldb.versions_pending_gc", "count", float64(b.in.eng.VersionStats().PendingGC))
	add("sqldb.replay_mb", "MB", float64(replayBytes)/1e6)
	fetches := float64(c.hits + c.misses)
	add("pager.hit_ratio", "ratio", safeDiv(float64(c.hits), fetches))
	add("pager.fetches_per_call", "count", safeDiv(fetches, float64(tracedCalls)))
	add("pager.misses_per_call", "count", safeDiv(float64(c.misses), float64(tracedCalls)))
	add("pager.evictions_per_call", "count", safeDiv(float64(c.evictions), float64(tracedCalls)))
	add("pager.dirty_writes_per_call", "count", safeDiv(float64(c.dirty), float64(tracedCalls)))
	add("pager.page_writes_per_commit", "count", safeDiv(float64(c.pageWrites), float64(c.commits)))
	var ckpt time.Duration
	for _, d := range b.ckptTimes {
		ckpt += d
	}
	ref("pager.checkpoint_ms", "ms", safeDiv(float64(ckpt.Microseconds()), float64(len(b.ckptTimes)))/1e3)
	add("trace.overhead_pct", "%", overheadPct)
	return out
}

// printModelled sets the paper's cost model (experiments.DefaultCosts,
// charged from the traced statement, row and byte counts) beside the
// measured wire / core / sqldb split of each action.
func printModelled(w io.Writer, r *layerReport) {
	cm := experiments.DefaultCosts()
	fmt.Fprintf(w, "modelled-vs-measured %-9s %10s %10s %8s | %10s %10s %10s %8s\n",
		"action", "msg_ms", "sql_ms", "sql_%", "wire_us", "core_us", "sqldb_us", "sql_%")
	for a := action(0); a < numActs; a++ {
		if r.ops[a] == 0 {
			continue
		}
		s, per := r.sum[a], func(v int64) float64 { return r.per(a, v) }
		calls := r.callsPerOp[a]
		msg := 0.0
		if calls > 0 {
			kbPerCall := math.Ceil(per(s.reqBytes+s.respBytes) / calls / 1024)
			msg = calls * (float64(cm.MsgUser+cm.MsgSystem) + kbPerCall*float64(cm.MsgPerKBSystem))
		}
		sqlCost := per(s.stmts)*float64(cm.StmtUser) + per(s.rows)*float64(cm.RowScanUser) +
			per(s.affected)*float64(cm.RowWriteUser) + per(s.writes)*float64(cm.StmtWriteIO)
		sqldbNs := per(s.stmt + s.commt)
		wireNs := 0.0 // schedule runs in-process
		if calls > 0 {
			wireNs = per(s.client-s.server) + r.codecServer[a]*calls
		}
		coreNs := per(s.server) - sqldbNs - r.codecServer[a]*calls
		fmt.Fprintf(w, "modelled-vs-measured %-9s %10.2f %10.2f %7.1f%% | %10.1f %10.1f %10.1f %7.1f%%\n",
			a, msg/1e6, sqlCost/1e6, 100*safeDiv(sqlCost, msg+sqlCost),
			wireNs/1e3, coreNs/1e3, sqldbNs/1e3, 100*safeDiv(sqldbNs, wireNs+coreNs+sqldbNs))
	}
}
