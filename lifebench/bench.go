package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"condorj2/internal/core"
	"condorj2/internal/sqldb"
	"condorj2/internal/wire"
)

// action is one step of the paper's Table 2 lifecycle, as the benchmark
// times it.
type action int

const (
	actSubmit action = iota
	actSchedule
	actHeartbeat // idle/MATCHINFO and delta-free heartbeats
	actAccept
	actComplete // completion heartbeats
	actStatus   // one PoolStatus plus one QueueStatus call
	numActs
)

var actNames = [numActs]string{"submit", "schedule", "heartbeat", "accept", "complete", "status"}

func (a action) String() string { return actNames[a] }

const (
	walPath     = "cas.wal"
	callTimeout = 30 * time.Second // cj2node's and cj2sub's -call-timeout
	retryMax    = 5
)

// daemonAdmission is condorj2d's default admission gate.
var daemonAdmission = wire.AdmissionConfig{
	MaxInFlight: 256,
	QueueWait:   500 * time.Millisecond,
	FreshFor:    10 * time.Second,
}

// client is one simulated agent connection: a node stack and a submitter
// stack (cj2node's and cj2sub's Retryer settings and Keyed predicates)
// over one keep-alive HTTP connection.
type client struct {
	node, sub *wire.Retryer
	transport *http.Transport
	// Per-client tallies, merged after each phase.
	samples   [numActs][]time.Duration
	attempted [numActs]int
	failed    [numActs]int
	calls     int
	err       error // first failed operation
}

func newClient(url string, tr *tracer) *client {
	t := &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, IdleConnTimeout: 90 * time.Second}
	var rt http.RoundTripper = t
	if tr != nil {
		rt = &tracedTransport{inner: t, t: tr}
	}
	wc := &wire.Client{URL: url, HTTP: &http.Client{Transport: rt}, Timeout: callTimeout}
	c := &client{
		transport: t,
		node: &wire.Retryer{Caller: wc,
			Keyed: func(a string) bool { return a == core.ActionAcceptMatch }},
		sub: &wire.Retryer{Caller: wc,
			Keyed: func(a string) bool {
				return a == core.ActionSubmitJob || a == core.ActionRegisterData || a == core.ActionConfigSet
			}},
	}
	for _, r := range []*wire.Retryer{c.node, c.sub} {
		r.Policy.MaxAttempts, r.Policy.BaseDelay, r.Policy.MaxDelay = retryMax, 200*time.Millisecond, 5*time.Second
	}
	return c
}

// instance is one assembled CAS: a durable store on a MemVFS, core.New
// over it, the daemon's admission gate, and HTTPHandler on loopback.
type instance struct {
	vfs    *sqldb.MemVFS
	eng    *sqldb.DB
	cas    *core.CAS
	svc    *core.Service
	srv    *http.Server
	served chan error
	url    string
	tr     *tracer
}

func storeOptions(sp *spec, vfs *sqldb.MemVFS) sqldb.Options {
	return sqldb.Options{VFS: vfs, Path: walPath, Sync: sqldb.SyncGroup, PoolPages: sp.poolPages, PageSize: sp.pageSize}
}

// assemble builds an instance the way condorj2d does, without its timer
// scheduler (the load generator runs ScheduleCycle itself).
func assemble(sp *spec, tr *tracer) (*instance, error) {
	in := &instance{vfs: sqldb.NewMemVFS(), tr: tr}
	var err error
	if in.eng, err = sqldb.Open(storeOptions(sp, in.vfs)); err != nil {
		return nil, err
	}
	if in.cas, err = core.New(core.Options{Engine: in.eng, PoolSize: 8}); err != nil {
		in.eng.Close()
		return nil, err
	}
	if tr != nil {
		tr.attach(in.cas)
	}
	in.svc = in.cas.Service
	in.cas.SetAdmission(daemonAdmission)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		in.close()
		return nil, err
	}
	var h http.Handler = in.cas.HTTPHandler()
	if tr != nil {
		h = &tracedHandler{inner: h, t: tr}
	}
	in.srv = &http.Server{Handler: h}
	in.served = make(chan error, 1)
	go func() { in.served <- in.srv.Serve(ln) }()
	in.url = "http://" + ln.Addr().String() + "/services"
	return in, nil
}

// close stops the server (waiting for its goroutine) and the CAS.
func (in *instance) close() error {
	var errs []error
	if in.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, in.srv.Shutdown(ctx))
		cancel()
		if err := <-in.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	if in.cas != nil {
		errs = append(errs, in.cas.Close())
	}
	if in.tr != nil {
		in.tr.detach()
	}
	errs = append(errs, in.eng.Close())
	return errors.Join(errs...)
}

// bench drives one workload against one instance.
type bench struct {
	sp      *spec
	tr      *tracer
	in      *instance
	clients []*client
	m       *model
	setupR  *rand.Rand // set-up inputs
	roundR  *rand.Rand // per-round inputs
	owners  []string
	cursor  int // steady-heartbeat round-robin position
	batch   int

	round    int
	problems []error // failed checks
	opErr    error   // first failed operation

	// Merged tallies; timed rounds only for samples.
	samples   [numActs][]time.Duration
	attempted [numActs]int
	failed    [numActs]int
	calls     int // wire calls in timed rounds
	completed int // jobs completed in timed rounds
	timedOn   bool

	matchYield [2]int // matched, idle jobs examined (traced rounds)
	ckptTimes  []time.Duration
	snap       *snapshot
}

func newBench(sp *spec, seed int64, clients int, tr *tracer) *bench {
	b := &bench{
		sp: sp, tr: tr, m: newModel(jobPriorities),
		setupR: rand.New(rand.NewSource(seed)),
		roundR: rand.New(rand.NewSource(seed ^ 0x5eed)),
	}
	for i := 0; i < sp.owners; i++ {
		b.owners = append(b.owners, fmt.Sprintf("user%02d", i))
	}
	b.clients = make([]*client, clients)
	return b
}

func (b *bench) check(errs ...error) {
	for _, err := range errs {
		if err != nil {
			b.problems = append(b.problems, err)
		}
	}
}

// setup assembles the instance, registers the fleet with boot heartbeats,
// reads the VM ids the CAS assigned, and preloads the backlog.
func (b *bench) setup() error {
	var err error
	if b.in, err = assemble(b.sp, b.tr); err != nil {
		return err
	}
	for i := range b.clients {
		b.clients[i] = newClient(b.in.url, b.tr)
	}
	if b.batch, err = b.configInt("schedule_batch"); err != nil {
		return err
	}
	sp := b.sp
	var boots []op
	for mi := 0; mi < sp.machines; mi++ {
		slotMem := sp.slotMemMB[b.setupR.Intn(len(sp.slotMemMB))]
		mc := modelMachine{name: fmt.Sprintf("node%04d", mi), totalMB: slotMem * int64(sp.slots)}
		b.m.machines = append(b.m.machines, mc)
		req := &core.HeartbeatRequest{Machine: mc.name, Boot: true, Arch: "X86_64", OpSys: "LINUX", TotalMemoryMB: mc.totalMB}
		for s := 0; s < sp.slots; s++ {
			req.VMs = append(req.VMs, core.VMStatus{Seq: int64(s), State: "idle"})
		}
		boots = append(boots, op{act: actHeartbeat, calls: 1, run: func(ctx context.Context, c *client) error {
			var resp core.HeartbeatResponse
			ctx = wire.WithIdempotencyKey(ctx, wire.NewIdempotencyKey())
			if err := b.call(ctx, c.node, core.ActionHeartbeat, req, &resp); err != nil {
				return err
			}
			for i, cmd := range resp.Commands {
				if cmd.Command != core.CmdOK || cmd.Seq != int64(i) {
					return fmt.Errorf("boot heartbeat %s: command %d is %s for seq %d", req.Machine, i, cmd.Command, cmd.Seq)
				}
			}
			if len(resp.Commands) != len(req.VMs) {
				return fmt.Errorf("boot heartbeat %s: %d commands for %d VMs", req.Machine, len(resp.Commands), len(req.VMs))
			}
			b.m.machines[mi].reported = true
			return nil
		}})
	}
	if err := b.phase(boots, nil); err != nil {
		return err
	}
	if err := b.readVMs(); err != nil {
		return err
	}
	var loads []op
	var results []submitResult
	for left := sp.backlog; left > 0; left -= sp.preloadPer {
		loads = append(loads, b.submitOp(min(left, sp.preloadPer), false, &results))
	}
	if err := b.serial(loads); err != nil {
		return err
	}
	return b.applySubmits(results)
}

// readVMs maps the CAS's VM ids onto the model once registration is done
// and checks each VM got TotalMemoryMB / slots.
func (b *bench) readVMs() error {
	rows, err := b.in.eng.Query(`SELECT id, machine, seq, memory_mb, state FROM vms`)
	if err != nil {
		return err
	}
	byName := make(map[string]int, len(b.m.machines))
	for i, mc := range b.m.machines {
		byName[mc.name] = i
	}
	for _, r := range rows.Data {
		mi, ok := byName[r[1].Text()]
		if !ok {
			return fmt.Errorf("registration: unknown machine %q in vms", r[1].Text())
		}
		v := modelVM{id: r[0].Int64(), machine: mi, seq: r[2].Int64(), memMB: r[3].Int64()}
		if want := b.m.machines[mi].totalMB / int64(b.sp.slots); v.memMB != want || r[4].Text() != core.VMIdle {
			return fmt.Errorf("registration: VM %s/%d has %d MB (%s), want %d MB idle", r[1].Text(), v.seq, v.memMB, r[4].Text(), want)
		}
		b.m.vms = append(b.m.vms, v)
	}
	if len(b.m.vms) != b.sp.machines*b.sp.slots {
		return fmt.Errorf("registration: %d VMs, want %d", len(b.m.vms), b.sp.machines*b.sp.slots)
	}
	sort.Slice(b.m.vms, func(i, j int) bool { return b.m.vms[i].id < b.m.vms[j].id })
	for i := range b.m.machines {
		b.m.machines[i].vms = make([]int, b.sp.slots)
	}
	for i, v := range b.m.vms {
		b.m.vmByID[v.id] = i
		b.m.machines[v.machine].vms[v.seq] = i
	}
	return nil
}

func (b *bench) configInt(name string) (int, error) {
	resp, err := b.in.svc.ConfigGet(context.Background(), &core.ConfigGetRequest{Name: name})
	if err != nil {
		return 0, err
	}
	return strconv.Atoi(resp.Value)
}

// op is one timed operation: one or more wire calls (or, for schedule,
// one in-process ScheduleCycle) on a client.
type op struct {
	act   action
	calls int
	run   func(ctx context.Context, c *client) error
}

// phase runs ops on the clients and waits for all of them. shared ops
// go to whichever client is free; reader ops run on the last client
// beside them when there are two or more clients.
func (b *bench) phase(shared, reader []op) error {
	lists := make([][]op, len(b.clients))
	if len(reader) > 0 && len(b.clients) > 1 {
		lists[len(lists)-1] = reader
		for i := range lists[:len(lists)-1] {
			lists[i] = shared
		}
	} else {
		all := append(append([]op(nil), shared...), reader...)
		for i := range lists {
			lists[i] = all
		}
	}
	// Clients sharing a list take ops from one counter; a dedicated reader
	// has its own.
	var sharedNext, readerNext atomic.Int64
	var wg sync.WaitGroup
	for ci, c := range b.clients {
		next := &sharedNext
		if len(reader) > 0 && len(b.clients) > 1 && ci == len(b.clients)-1 {
			next = &readerNext
		}
		list := lists[ci]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(list) {
					return
				}
				b.runOp(c, list[i])
			}
		}()
	}
	wg.Wait()
	return b.merge()
}

// serial runs ops one after another on the first client. Two kinds of
// operation go this way, each because of a fault concurrency exposes:
// two submits committing at once interleave their job ids, so a
// SubmitResponse's [FirstJobID, LastJobID] no longer names only that
// call's jobs; and two completion heartbeats crediting the same owner
// deadlock on the accounting row, now and then past beans.InTx's retry
// budget.
func (b *bench) serial(ops []op) error {
	for _, o := range ops {
		b.runOp(b.clients[0], o)
	}
	return b.merge()
}

func (b *bench) runOp(c *client, o op) {
	ctx := context.Background()
	if b.tr != nil {
		ctx = b.tr.beginOp(ctx, o.act)
	}
	t0 := time.Now()
	err := o.run(ctx, c)
	d := time.Since(t0)
	c.attempted[o.act]++
	if err != nil {
		c.failed[o.act]++
		if c.err == nil {
			c.err = fmt.Errorf("%s: %w", o.act, err)
		}
		return
	}
	if b.timedOn {
		c.samples[o.act] = append(c.samples[o.act], d)
		c.calls += o.calls
	}
}

// merge folds the clients' tallies into the bench and reports the first
// failed operation.
func (b *bench) merge() error {
	for _, c := range b.clients {
		for a := action(0); a < numActs; a++ {
			b.attempted[a] += c.attempted[a]
			b.failed[a] += c.failed[a]
			b.samples[a] = append(b.samples[a], c.samples[a]...)
			c.attempted[a], c.failed[a], c.samples[a] = 0, 0, c.samples[a][:0]
		}
		b.calls += c.calls
		c.calls = 0
		if c.err != nil && b.opErr == nil {
			b.opErr = c.err
		}
		c.err = nil
	}
	return b.opErr
}

// call issues one wire call with cj2node's per-call deadline.
func (b *bench) call(ctx context.Context, r *wire.Retryer, action string, req, resp any) error {
	ctx, cancel := context.WithTimeout(ctx, callTimeout)
	defer cancel()
	if b.tr != nil {
		return b.tr.clientCall(ctx, r, action, req, resp)
	}
	return r.Call(ctx, action, req, resp)
}

type submitResult struct {
	spec        JobSpec
	count       int
	first, last int64
}

// submitOp submits n identical jobs with a freshly drawn spec (fitAny
// drops its MinMemoryMB to 0); the result lands in *results in op order
// once the phase ends.
func (b *bench) submitOp(n int, fitAny bool, results *[]submitResult) op {
	r := b.setupR
	if b.round > 0 {
		r = b.roundR
	}
	sp := b.sp
	spec := JobSpec{
		Owner:     b.owners[r.Intn(len(b.owners))],
		LengthSec: minLenSec + r.Int63n(maxLenSec-minLenSec+1),
		MemoryMB:  sp.jobMemMB[r.Intn(len(sp.jobMemMB))],
		Priority:  jobPriorities[r.Intn(len(jobPriorities))],
	}
	if fitAny {
		spec.MemoryMB = 0
	}
	idx := len(*results)
	*results = append(*results, submitResult{spec: spec, count: n})
	req := &core.SubmitRequest{Owner: spec.Owner, Count: n, LengthSec: spec.LengthSec, MinMemoryMB: spec.MemoryMB, Priority: spec.Priority}
	return op{act: actSubmit, calls: 1, run: func(ctx context.Context, c *client) error {
		var resp core.SubmitResponse
		if err := b.call(ctx, c.sub, core.ActionSubmitJob, req, &resp); err != nil {
			return err
		}
		(*results)[idx].first, (*results)[idx].last = resp.FirstJobID, resp.LastJobID
		return nil
	}}
}

func (b *bench) applySubmits(results []submitResult) error {
	for _, r := range results {
		if r.last-r.first+1 != int64(r.count) {
			return fmt.Errorf("submit: %d jobs got id range [%d,%d]", r.count, r.first, r.last)
		}
		if err := b.m.addJobs(r.first, r.last, r.spec); err != nil {
			return err
		}
	}
	return nil
}

// heartbeatOp sends machine mi's report (done marks finished VMs) and
// keeps the reply for the coordinator.
func (b *bench) heartbeatOp(act action, mi int, done map[int]bool, keyed bool, out *[]*core.HeartbeatResponse) op {
	req := b.m.report(mi, done)
	idx := len(*out)
	*out = append(*out, nil)
	return op{act: act, calls: 1, run: func(ctx context.Context, c *client) error {
		resp := new(core.HeartbeatResponse)
		if keyed {
			ctx = wire.WithIdempotencyKey(ctx, wire.NewIdempotencyKey())
		}
		if err := b.call(ctx, c.node, core.ActionHeartbeat, req, resp); err != nil {
			return err
		}
		(*out)[idx] = resp
		return nil
	}}
}

type statusResult struct {
	owner string
	pool  core.PoolStatusResponse
	queue core.QueueStatusResponse
}

func (b *bench) statusOp(owner string, out *[]*statusResult) op {
	idx := len(*out)
	*out = append(*out, nil)
	return op{act: actStatus, calls: 2, run: func(ctx context.Context, c *client) error {
		res := &statusResult{owner: owner}
		if err := b.call(ctx, c.sub, core.ActionPoolStatus, &core.PoolStatusRequest{}, &res.pool); err != nil {
			return err
		}
		if err := b.call(ctx, c.sub, core.ActionQueueStatus, &core.QueueStatusRequest{Owner: owner, Limit: queueLimit}, &res.queue); err != nil {
			return err
		}
		(*out)[idx] = res
		return nil
	}}
}

// roundKind selects what a round does beyond schedule, MATCHINFO and
// accept.
type roundKind int

const (
	// timedRound is the whole lifecycle: submits, completions of the jobs
	// that are due, steady heartbeats beside status reads.
	timedRound roundKind = iota
	// fillRound submits up to a schedule batch of jobs (preloadPer per
	// call) that fit any VM, and starts them; nothing completes. Best-fit
	// puts them on the smallest VMs, so the VMs left idle can take any
	// job the timed rounds submit and no queue builds up.
	fillRound
	// drainRound submits nothing and completes every running job.
	drainRound
)

// runRound drives one round of the lifecycle: submit, ScheduleCycle,
// MATCHINFO heartbeats, AcceptMatch, completion heartbeats, then steady
// heartbeats beside status reads (and a checkpoint when one is due).
func (b *bench) runRound(kind roundKind) error {
	sp, m := b.sp, b.m
	b.round++

	n, per := sp.submitPerRound, sp.jobsPerSubmit
	switch kind {
	case fillRound:
		n, per = min(b.batch, sp.fillBusy-len(m.jobs)), sp.preloadPer
	case drainRound:
		n = 0
	}
	if n > 0 {
		var results []submitResult
		var ops []op
		for left := n; left > 0; left -= per {
			ops = append(ops, b.submitOp(min(left, per), kind == fillRound, &results))
		}
		if err := b.serial(ops); err != nil {
			return err
		}
		if err := b.applySubmits(results); err != nil {
			return err
		}
	}

	// ScheduleCycle, timed in-process like the daemon's timer would run it.
	idle := m.idleVMs()
	top, next := m.queueHead(min(len(idle), b.batch))
	cyc := &Cycle{Batch: b.batch, IdleVMs: idle, Top: top, Next: next}
	want := BestFit(b.batch, idle, top)
	schedOp := op{act: actSchedule, run: func(ctx context.Context, _ *client) error {
		cycle := func(ctx context.Context) error {
			st, err := b.in.svc.ScheduleCycle(ctx)
			cyc.Stats = st
			return err
		}
		if b.tr != nil {
			return b.tr.cycle(ctx, cycle)
		}
		return cycle(ctx)
	}}
	b.runOp(b.clients[0], schedOp)
	if err := b.merge(); err != nil {
		return err
	}
	if b.tr != nil && b.tr.on.Load() {
		b.matchYield[0] += cyc.Stats.Matched
		b.matchYield[1] += cyc.Stats.IdleJobs
	}
	m.match(want)

	// MATCHINFO heartbeats from every machine with a matched VM.
	matchedMachines := map[int]bool{}
	for _, vmID := range want {
		matchedMachines[m.vms[m.vmByID[vmID]].machine] = true
	}
	var hbOut []*core.HeartbeatResponse
	var hbMachines []int
	var ops []op
	for _, mi := range sortedKeys(matchedMachines) {
		hbMachines = append(hbMachines, mi)
		ops = append(ops, b.heartbeatOp(actHeartbeat, mi, nil, false, &hbOut))
	}
	if err := b.phase(ops, nil); err != nil {
		return err
	}
	cyc.Matched = map[int64]int64{}
	var accepts []int // VM indexes
	for i, mi := range hbMachines {
		resp := hbOut[i]
		b.check(m.expectCommands(mi, resp))
		for j, cmd := range resp.Commands {
			if cmd.Command != core.CmdMatchInfo || j >= len(m.machines[mi].vms) {
				continue
			}
			vi := m.machines[mi].vms[j]
			v := &m.vms[vi]
			cyc.Matched[cmd.JobID] = v.id
			if spec, ok := m.ledger.Submitted[cmd.JobID]; !ok || cmd.Owner != spec.Owner || cmd.LengthSec != spec.LengthSec {
				b.check(fmt.Errorf("MATCHINFO for job %d: owner %q length %d does not match its submission", cmd.JobID, cmd.Owner, cmd.LengthSec))
			}
			if v.job == cmd.JobID {
				v.matchID = cmd.MatchID
				accepts = append(accepts, vi)
			}
		}
	}
	b.check(CheckCycle(cyc)...)
	if len(b.problems) > 0 {
		return errChecks
	}

	// AcceptMatch for every advertised match.
	sort.Ints(accepts)
	ops = ops[:0]
	for _, vi := range accepts {
		v := m.vms[vi]
		req := &core.AcceptMatchRequest{Machine: m.machines[v.machine].name, Seq: v.seq, MatchID: v.matchID, JobID: v.job}
		ops = append(ops, op{act: actAccept, calls: 1, run: func(ctx context.Context, c *client) error {
			var resp core.AcceptMatchResponse
			if err := b.call(ctx, c.node, core.ActionAcceptMatch, req, &resp); err != nil {
				return err
			}
			if !resp.OK {
				return fmt.Errorf("acceptMatch %d for job %d refused: %s", req.MatchID, req.JobID, resp.Reason)
			}
			return nil
		}})
	}
	if err := b.phase(ops, nil); err != nil {
		return err
	}
	for _, vi := range accepts {
		v := &m.vms[vi]
		v.phase, v.doneRound = vmRunning, b.round+sp.runRounds-1
		m.jobs[v.job].phase = jobRunning
	}

	// Completion heartbeats: each machine reports its finished VMs.
	doneBy := map[int]map[int]bool{}
	for vi := range m.vms {
		if v := &m.vms[vi]; v.phase == vmRunning && (v.doneRound <= b.round || kind == drainRound) {
			if doneBy[v.machine] == nil {
				doneBy[v.machine] = map[int]bool{}
			}
			doneBy[v.machine][vi] = true
		}
	}
	hbOut, ops = nil, ops[:0]
	doneMachines := sortedKeys(doneBy)
	for _, mi := range doneMachines {
		ops = append(ops, b.heartbeatOp(actComplete, mi, doneBy[mi], true, &hbOut))
	}
	if err := b.serial(ops); err != nil {
		return err
	}
	completed := 0
	for i, mi := range doneMachines {
		b.check(m.expectCommands(mi, hbOut[i]))
		for vi := range doneBy[mi] {
			v := &m.vms[vi]
			m.ledger.Reported = append(m.ledger.Reported, v.job)
			delete(m.jobs, v.job)
			v.phase, v.job, v.matchID = vmIdle, 0, 0
			completed++
		}
	}
	if b.timedOn {
		b.completed += completed
	}
	if kind != timedRound {
		return nil
	}

	// Steady heartbeats beside status reads; a due checkpoint overlaps
	// them, as the daemon's background checkpointer would.
	hbOut, ops = nil, ops[:0]
	var steadyMachines []int
	for i := 0; i < sp.steadyBeats; i++ {
		mi := b.cursor
		b.cursor = (b.cursor + 1) % len(m.machines)
		steadyMachines = append(steadyMachines, mi)
		ops = append(ops, b.heartbeatOp(actHeartbeat, mi, nil, false, &hbOut))
	}
	var stOut []*statusResult
	var reads []op
	for i := 0; i < sp.statusOps; i++ {
		reads = append(reads, b.statusOp(b.owners[(b.round*sp.statusOps+i)%len(b.owners)], &stOut))
	}
	ckptDone := make(chan error, 1)
	ckpt := sp.poolPages > 0 && sp.checkpointEvery > 0 && b.round%sp.checkpointEvery == 0
	if ckpt {
		go func() {
			t0 := time.Now()
			err := b.in.eng.Checkpoint()
			if b.tr == nil || b.tr.on.Load() {
				b.ckptTimes = append(b.ckptTimes, time.Since(t0))
			}
			ckptDone <- err
		}()
	}
	var phaseErr error
	if sp.dedicatedReader {
		phaseErr = b.phase(ops, reads)
	} else {
		phaseErr = b.phase(append(ops, reads...), nil)
	}
	if ckpt {
		if err := <-ckptDone; err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
	}
	if phaseErr != nil {
		return phaseErr
	}
	for i, mi := range steadyMachines {
		b.check(m.expectCommands(mi, hbOut[i]))
	}
	if len(stOut) > 0 {
		pool := m.poolCounts()
		listings := map[string][]core.QueueJob{}
		for _, st := range stOut {
			if _, ok := listings[st.owner]; !ok {
				listings[st.owner] = m.queueListing(st.owner, queueLimit)
			}
			b.check(CheckPool(pool, &st.pool), CheckQueue(listings[st.owner], &st.queue))
		}
	}
	if len(b.problems) > 0 {
		return errChecks
	}
	return nil
}

var errChecks = errors.New("checks failed")

// fill brings a workload with fillBusy > 0 to its plateau before the
// timed phase: fill rounds until fillBusy jobs are live, then round
// numbering restarts and the running jobs are given finishing rounds in a
// random order drawn from the seed, submitPerRound of them per round, so
// the timed rounds turn over as many jobs as they submit.
func (b *bench) fill() error {
	for len(b.m.jobs) < b.sp.fillBusy {
		if err := b.runRound(fillRound); err != nil {
			return err
		}
	}
	var running []int
	for vi := range b.m.vms {
		if b.m.vms[vi].phase == vmRunning {
			running = append(running, vi)
		}
	}
	b.setupR.Shuffle(len(running), func(i, j int) { running[i], running[j] = running[j], running[i] })
	b.round = 0
	for k, vi := range running {
		b.m.vms[vi].doneRound = 1 + k/b.sp.submitPerRound
	}
	if b.sp.poolPages > 0 {
		return b.in.eng.Checkpoint() // the timed phase starts from a short WAL
	}
	return nil
}

func sortedKeys[V any](m map[int]V) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostSteal is the time the hypervisor has taken from this machine's
// CPUs since boot, averaged over them: the steal column of /proc/stat's
// total line (in USER_HZ ticks, 100 a second on Linux) over the number of
// per-CPU lines. It reads 0 where /proc/stat is missing.
func hostSteal() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	var ticks int64
	cpus := 0
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) > 8 && f[0] == "cpu":
			ticks, _ = strconv.ParseInt(f[8], 10, 64)
		case len(f) > 0 && strings.HasPrefix(f[0], "cpu"):
			cpus++
		}
	}
	if cpus == 0 {
		return 0
	}
	return time.Duration(ticks) * (time.Second / 100) / time.Duration(cpus)
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// ownerStats asks the CAS for every owner's accounting record over the
// submitter stack.
func (b *bench) ownerStats() (map[string]core.UserStatsResponse, error) {
	out := make(map[string]core.UserStatsResponse, len(b.owners))
	c := b.clients[0]
	for _, o := range b.owners {
		var resp core.UserStatsResponse
		if err := b.call(context.Background(), c.sub, core.ActionUserStats, &core.UserStatsRequest{Owner: o}, &resp); err != nil {
			return nil, err
		}
		if resp.Owner != o {
			return nil, fmt.Errorf("userStats for %s answered for %q", o, resp.Owner)
		}
		out[o] = resp
	}
	return out, nil
}

// readHistory reads job_history back for the ledger.
func (b *bench) readHistory() ([]HistoryRow, error) {
	rows, err := b.in.eng.Query(`SELECT job_id, owner, length_sec, outcome FROM job_history`)
	if err != nil {
		return nil, err
	}
	out := make([]HistoryRow, len(rows.Data))
	for i, r := range rows.Data {
		out[i] = HistoryRow{JobID: r[0].Int64(), Owner: r[1].Text(), LengthSec: r[2].Int64(), Outcome: r[3].Text()}
	}
	return out, nil
}

func (b *bench) teardown() error {
	for _, c := range b.clients {
		if c != nil {
			c.transport.CloseIdleConnections()
		}
	}
	if b.in == nil {
		return nil
	}
	err := b.in.close()
	b.in = nil
	runtime.GC()
	return err
}
