package main

import (
	"fmt"
	"sort"

	"condorj2/internal/core"
)

// The generator's model of the pool: what every VM and job should be
// doing after each phase of a round. Heartbeat requests are built from it
// (a simulated node reports what the model says it runs), and the
// checker compares the CAS's answers with it.

type vmPhase int

const (
	vmIdle vmPhase = iota
	vmMatched
	vmRunning
)

type modelVM struct {
	id      int64
	machine int
	seq     int64
	memMB   int64
	phase   vmPhase
	job     int64
	matchID int64
	// doneRound is the round whose completion phase reports the running
	// job finished.
	doneRound int
}

type modelMachine struct {
	name     string
	totalMB  int64
	vms      []int // indexes into model.vms, by seq
	reported bool  // true once its boot heartbeat is acknowledged
}

type jobPhase int

const (
	jobIdle jobPhase = iota
	jobMatched
	jobRunning
)

type modelJob struct {
	spec  JobSpec
	phase jobPhase
}

type model struct {
	machines []modelMachine
	vms      []modelVM // sorted by id once registration is read back
	vmByID   map[int64]int
	jobs     map[int64]*modelJob // live jobs: idle, matched or running
	// queue holds idle job ids per priority level, each list in id order.
	queue  map[float64][]int64
	prios  []float64 // priority levels, descending
	ledger Ledger
}

func newModel(prios []float64) *model {
	ps := append([]float64(nil), prios...)
	sort.Sort(sort.Reverse(sort.Float64Slice(ps)))
	return &model{
		vmByID: make(map[int64]int),
		jobs:   make(map[int64]*modelJob),
		queue:  make(map[float64][]int64),
		prios:  ps,
		ledger: Ledger{Submitted: make(map[int64]JobSpec)},
	}
}

// addJobs records a submit call's jobs. ids arrive in any order across
// concurrent submitters; each priority list is kept sorted.
func (m *model) addJobs(first, last int64, spec JobSpec) error {
	if last < first {
		return fmt.Errorf("submit: empty id range [%d,%d]", first, last)
	}
	q := m.queue[spec.Priority]
	sorted := len(q) == 0 || q[len(q)-1] < first
	for id := first; id <= last; id++ {
		if _, dup := m.ledger.Submitted[id]; dup {
			return fmt.Errorf("submit: job id %d assigned twice", id)
		}
		m.ledger.Submitted[id] = spec
		m.jobs[id] = &modelJob{spec: spec}
		q = append(q, id)
	}
	if !sorted {
		sort.Slice(q, func(i, j int) bool { return q[i] < q[j] })
	}
	m.queue[spec.Priority] = q
	return nil
}

// queued counts the idle jobs waiting for a match.
func (m *model) queued() int {
	n := 0
	for _, q := range m.queue {
		n += len(q)
	}
	return n
}

// idleVMs lists idle VMs in id order.
func (m *model) idleVMs() []CandVM {
	var out []CandVM
	for i := range m.vms {
		if v := &m.vms[i]; v.phase == vmIdle {
			out = append(out, CandVM{ID: v.id, MemoryMB: v.memMB})
		}
	}
	return out
}

// queueHead returns the first n idle jobs in queue order plus the one
// after them (nil when the queue holds no more).
func (m *model) queueHead(n int) ([]CandJob, *CandJob) {
	var head []CandJob
	for _, p := range m.prios {
		for _, id := range m.queue[p] {
			c := CandJob{ID: id, Priority: p, MemoryMB: m.jobs[id].spec.MemoryMB}
			if len(head) == n {
				return head, &c
			}
			head = append(head, c)
		}
	}
	return head, nil
}

// match applies a verified cycle: the jobs leave the idle queue, the VMs
// wait for their MATCHINFO.
func (m *model) match(pairs map[int64]int64) {
	for _, p := range m.prios {
		q := m.queue[p]
		kept := q[:0]
		for _, id := range q {
			if _, ok := pairs[id]; !ok {
				kept = append(kept, id)
			}
		}
		m.queue[p] = kept
	}
	for job, vmID := range pairs {
		m.jobs[job].phase = jobMatched
		v := &m.vms[m.vmByID[vmID]]
		v.phase, v.job, v.matchID = vmMatched, job, 0
	}
}

// report builds a machine's heartbeat as its node would send it; done
// lists VM indexes whose running job finished.
func (m *model) report(mi int, done map[int]bool) *core.HeartbeatRequest {
	mc := &m.machines[mi]
	req := &core.HeartbeatRequest{Machine: mc.name, VMs: make([]core.VMStatus, 0, len(mc.vms))}
	for _, vi := range mc.vms {
		v := &m.vms[vi]
		st := core.VMStatus{Seq: v.seq, State: "idle"}
		if v.phase == vmRunning {
			st.State, st.JobID, st.Phase = "claimed", v.job, "running"
			if done[vi] {
				st.Phase = "completed"
			}
		}
		req.VMs = append(req.VMs, st)
	}
	return req
}

// expectCommands checks a heartbeat reply: MATCHINFO for each matched VM
// (with the model's job), OK for every other VM.
func (m *model) expectCommands(mi int, resp *core.HeartbeatResponse) error {
	mc := &m.machines[mi]
	if len(resp.Commands) != len(mc.vms) {
		return fmt.Errorf("heartbeat %s: %d commands for %d VMs", mc.name, len(resp.Commands), len(mc.vms))
	}
	for i, vi := range mc.vms {
		v, cmd := &m.vms[vi], resp.Commands[i]
		if cmd.Seq != v.seq {
			return fmt.Errorf("heartbeat %s: command %d for seq %d, want seq %d", mc.name, i, cmd.Seq, v.seq)
		}
		want := core.CmdOK
		if v.phase == vmMatched {
			want = core.CmdMatchInfo
		}
		if cmd.Command != want {
			return fmt.Errorf("heartbeat %s/%d: command %s, model expects %s", mc.name, v.seq, cmd.Command, want)
		}
	}
	return nil
}

// poolCounts is the PoolStatus answer the model predicts.
func (m *model) poolCounts() PoolCounts {
	pc := PoolCounts{Machines: map[string]int64{}, VMs: map[string]int64{}, Jobs: map[string]int64{}}
	for _, mc := range m.machines {
		if mc.reported {
			pc.Machines[core.MachineUp]++
		}
	}
	vmState := [...]string{vmIdle: core.VMIdle, vmMatched: core.VMMatched, vmRunning: core.VMClaimed}
	for i := range m.vms {
		pc.VMs[vmState[m.vms[i].phase]]++
	}
	jobState := [...]string{jobIdle: core.JobIdle, jobMatched: core.JobMatched, jobRunning: core.JobRunning}
	for _, j := range m.jobs {
		pc.Jobs[jobState[j.phase]]++
	}
	pc.Running = pc.Jobs[core.JobRunning]
	return pc
}

// queueListing is the QueueStatus answer the model predicts for one
// owner: live jobs in id order, at most limit.
func (m *model) queueListing(owner string, limit int) []core.QueueJob {
	jobState := [...]string{jobIdle: core.JobIdle, jobMatched: core.JobMatched, jobRunning: core.JobRunning}
	var ids []int64
	for id, j := range m.jobs {
		if j.spec.Owner == owner {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	if len(ids) > limit {
		ids = ids[:limit]
	}
	out := make([]core.QueueJob, len(ids))
	for i, id := range ids {
		j := m.jobs[id]
		out[i] = core.QueueJob{ID: id, Owner: owner, State: jobState[j.phase], LengthSec: j.spec.LengthSec}
	}
	return out
}
