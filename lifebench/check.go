package main

import (
	"fmt"
	"maps"
	"sort"

	"condorj2/internal/core"
)

// The checker judges the CAS's outputs against records the load generator
// keeps for itself. It never calls into the program: best-fit pairing,
// queue order, accounting sums and status counts are recomputed here from
// the generator's ledger, so a fault in the CAS cannot hide behind the
// same fault in its checker.

// JobSpec is one submitted job as the generator asked for it.
type JobSpec struct {
	Owner     string
	LengthSec int64
	MemoryMB  int64
	Priority  float64
}

// HistoryRow is one job_history row read back from the store.
type HistoryRow struct {
	JobID     int64
	Owner     string
	LengthSec int64
	Outcome   string
}

// Ledger is the generator's record of one run.
type Ledger struct {
	// Submitted holds every job id the CAS assigned, with its spec.
	Submitted map[int64]JobSpec
	// Reported lists the job id of every completion heartbeat the
	// generator sent and the CAS acknowledged.
	Reported []int64
	// Queued lists the jobs the generator's model still holds (idle,
	// matched or running) at the end of the run.
	Queued []int64
	// History is the store's job_history table after the run.
	History []HistoryRow
	// UserStats is the CAS's accounting answer per owner.
	UserStats map[string]core.UserStatsResponse
}

// CheckLedger verifies exactly-once completion and accounting: every
// submitted job completed exactly once or is still queued, job_history
// holds one completed row per reported completion and nothing else, and
// each owner's UserStats equals the sum over that owner's completed jobs.
func CheckLedger(l *Ledger) []error {
	var errs []error
	fail := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }

	reported := make(map[int64]int, len(l.Reported))
	for _, id := range l.Reported {
		reported[id]++
		if reported[id] == 2 {
			fail("job %d: completion reported more than once", id)
		}
		if _, ok := l.Submitted[id]; !ok {
			fail("job %d: completion reported for a job never submitted", id)
		}
	}
	queued := make(map[int64]bool, len(l.Queued))
	for _, id := range l.Queued {
		if queued[id] {
			fail("job %d: queued twice in the model", id)
		}
		queued[id] = true
		if reported[id] > 0 {
			fail("job %d: both completed and still queued", id)
		}
	}
	for id := range l.Submitted {
		if reported[id] == 0 && !queued[id] {
			fail("job %d: submitted but neither completed nor queued", id)
		}
	}

	inHistory := make(map[int64]int, len(l.History))
	for _, h := range l.History {
		inHistory[h.JobID]++
		if inHistory[h.JobID] == 2 {
			fail("job %d: more than one job_history row", h.JobID)
		}
		spec, ok := l.Submitted[h.JobID]
		switch {
		case !ok:
			fail("job %d: job_history row for a job never submitted", h.JobID)
		case h.Owner != spec.Owner || h.LengthSec != spec.LengthSec:
			fail("job %d: job_history says %s/%ds, submitted as %s/%ds", h.JobID, h.Owner, h.LengthSec, spec.Owner, spec.LengthSec)
		}
		if h.Outcome != "completed" {
			fail("job %d: job_history outcome %q, want completed", h.JobID, h.Outcome)
		}
		if reported[h.JobID] == 0 {
			fail("job %d: in job_history but its completion was never reported", h.JobID)
		}
	}
	for id := range reported {
		if inHistory[id] == 0 {
			fail("job %d: completion acknowledged but no job_history row", id)
		}
	}

	type acct struct{ jobs, secs int64 }
	want := make(map[string]acct)
	for id, n := range reported {
		if n == 0 {
			continue
		}
		spec := l.Submitted[id]
		a := want[spec.Owner]
		a.jobs++
		a.secs += spec.LengthSec
		want[spec.Owner] = a
	}
	owners := make(map[string]bool)
	for o := range want {
		owners[o] = true
	}
	for o := range l.UserStats {
		owners[o] = true
	}
	for o := range owners {
		got, w := l.UserStats[o], want[o]
		if got.CompletedJobs != w.jobs || got.TotalRuntimeSec != w.secs || got.DroppedJobs != 0 {
			fail("owner %s: UserStats %d jobs/%ds/%d dropped, ledger says %d jobs/%ds/0 dropped",
				o, got.CompletedJobs, got.TotalRuntimeSec, got.DroppedJobs, w.jobs, w.secs)
		}
	}
	return errs
}

// CandJob is an idle job as the generator's queue model holds it.
type CandJob struct {
	ID       int64
	Priority float64
	MemoryMB int64
}

// CandVM is an idle VM as the generator's fleet model holds it.
type CandVM struct {
	ID       int64
	MemoryMB int64
}

// Cycle records one ScheduleCycle: the top of the generator's idle queue
// and idle VM list when it ran, what the CAS said it did, and the
// matches its MATCHINFO heartbeats then advertised.
type Cycle struct {
	// Batch is the configured schedule_batch.
	Batch int
	// IdleVMs is every idle VM, in any order.
	IdleVMs []CandVM
	// Top is the head of the idle queue in queue order (priority desc,
	// id asc), at least as long as the cycle can consume.
	Top []CandJob
	// Next is the best idle job after Top (nil when Top is the whole
	// queue); it bounds Top from below.
	Next *CandJob
	// Stats is the CAS's own report of the cycle.
	Stats core.ScheduleStats
	// Matched maps job id to VM id as the MATCHINFO heartbeats advertised.
	Matched map[int64]int64
}

// queueBefore reports whether a precedes b in the scheduler's queue
// order: priority descending, then id ascending.
func queueBefore(a, b CandJob) bool {
	if a.Priority != b.Priority {
		return a.Priority > b.Priority
	}
	return a.ID < b.ID
}

// BestFit computes a cycle's matches from first principles: the first
// batch idle VMs by id face the same number of queue-head jobs; each job
// in queue order takes the smallest-memory VM (lowest id among equals)
// that fits it, or none.
func BestFit(batch int, idleVMs []CandVM, top []CandJob) map[int64]int64 {
	vms := append([]CandVM(nil), idleVMs...)
	sort.Slice(vms, func(i, j int) bool { return vms[i].ID < vms[j].ID })
	if len(vms) > batch {
		vms = vms[:batch]
	}
	jobs := top
	if len(jobs) > len(vms) {
		jobs = jobs[:len(vms)]
	}
	used := make([]bool, len(vms))
	out := make(map[int64]int64)
	for _, j := range jobs {
		best := -1
		for i, v := range vms {
			if used[i] || v.MemoryMB < j.MemoryMB {
				continue
			}
			if best < 0 || v.MemoryMB < vms[best].MemoryMB || (v.MemoryMB == vms[best].MemoryMB && v.ID < vms[best].ID) {
				best = i
			}
		}
		if best >= 0 {
			used[best] = true
			out[j.ID] = vms[best].ID
		}
	}
	return out
}

// CheckCycle verifies one scheduling cycle: the queue head is in queue
// order and no idle job outside it ranks higher, the CAS's counts agree
// with the candidate sets, and the advertised matches are exactly the
// best-fit pairing of the queue head with the idle VMs — every one of
// which fits its VM's memory.
func CheckCycle(c *Cycle) []error {
	var errs []error
	vmMemory := make(map[int64]int64, len(c.IdleVMs))
	for _, v := range c.IdleVMs {
		vmMemory[v.ID] = v.MemoryMB
	}
	jobMemory := make(map[int64]int64, len(c.Top))
	for _, j := range c.Top {
		jobMemory[j.ID] = j.MemoryMB
	}
	fail := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }
	for i := 1; i < len(c.Top); i++ {
		if !queueBefore(c.Top[i-1], c.Top[i]) {
			fail("cycle: queue head out of order at %d (job %d before job %d)", i, c.Top[i-1].ID, c.Top[i].ID)
		}
	}
	if c.Next != nil && len(c.Top) > 0 && !queueBefore(c.Top[len(c.Top)-1], *c.Next) {
		fail("cycle: idle job %d outranks the queue head's last job %d", c.Next.ID, c.Top[len(c.Top)-1].ID)
	}
	wantVMs := min(len(c.IdleVMs), c.Batch)
	wantJobs := 0
	if wantVMs > 0 {
		wantJobs = min(len(c.Top), wantVMs)
		if c.Next != nil && len(c.Top) < wantVMs {
			fail("cycle: queue head holds %d jobs, the cycle consumes %d", len(c.Top), wantVMs)
		}
	}
	want := BestFit(c.Batch, c.IdleVMs, c.Top)
	if c.Stats.IdleVMs != wantVMs || c.Stats.IdleJobs != wantJobs || c.Stats.Matched != len(want) {
		fail("cycle: CAS reports %d idle VMs, %d idle jobs, %d matched; expected %d, %d, %d",
			c.Stats.IdleVMs, c.Stats.IdleJobs, c.Stats.Matched, wantVMs, wantJobs, len(want))
	}
	for job, vm := range c.Matched {
		if w, ok := want[job]; !ok {
			fail("cycle: job %d matched to VM %d, but best fit leaves it unmatched", job, vm)
		} else if w != vm {
			fail("cycle: job %d matched to VM %d, best fit says VM %d", job, vm, w)
		}
		if mem, ok := vmMemory[vm]; !ok || jobMemory[job] > mem {
			fail("cycle: job %d needs %d MB, VM %d has %d MB", job, jobMemory[job], vm, vmMemory[vm])
		}
	}
	for job, vm := range want {
		if _, ok := c.Matched[job]; !ok {
			fail("cycle: best fit pairs job %d with VM %d, but no MATCHINFO advertised it", job, vm)
		}
	}
	return errs
}

// PoolCounts is a PoolStatus answer reduced to state → count maps.
type PoolCounts struct {
	Machines, VMs, Jobs map[string]int64
	Running             int64
}

// CountsOf reduces a PoolStatus answer, rejecting unordered or repeated
// states (the CAS lists each state once, in state order).
func CountsOf(r *core.PoolStatusResponse) (PoolCounts, error) {
	pc := PoolCounts{Running: r.RunningJobs}
	var err error
	conv := func(name string, in []core.StateCount) map[string]int64 {
		out := make(map[string]int64, len(in))
		for i, sc := range in {
			if i > 0 && in[i-1].State >= sc.State && err == nil {
				err = fmt.Errorf("pool status: %s states out of order (%q then %q)", name, in[i-1].State, sc.State)
			}
			if sc.Count <= 0 && err == nil {
				err = fmt.Errorf("pool status: %s state %q has count %d", name, sc.State, sc.Count)
			}
			out[sc.State] = sc.Count
		}
		return out
	}
	pc.Machines, pc.VMs, pc.Jobs = conv("machine", r.Machines), conv("vm", r.VMs), conv("job", r.Jobs)
	return pc, err
}

// CheckPool compares a PoolStatus answer with the model's counts.
func CheckPool(want PoolCounts, got *core.PoolStatusResponse) error {
	pc, err := CountsOf(got)
	if err != nil {
		return err
	}
	if !maps.Equal(pc.Machines, want.Machines) || !maps.Equal(pc.VMs, want.VMs) ||
		!maps.Equal(pc.Jobs, want.Jobs) || pc.Running != want.Running {
		return fmt.Errorf("pool status: CAS says machines %v vms %v jobs %v running %d; model says machines %v vms %v jobs %v running %d",
			pc.Machines, pc.VMs, pc.Jobs, pc.Running, want.Machines, want.VMs, want.Jobs, want.Running)
	}
	return nil
}

// CheckQueue compares a QueueStatus answer with the model's listing.
func CheckQueue(want []core.QueueJob, got *core.QueueStatusResponse) error {
	if len(got.Jobs) != len(want) {
		return fmt.Errorf("queue status: CAS lists %d jobs, model %d", len(got.Jobs), len(want))
	}
	for i := range want {
		if got.Jobs[i] != want[i] {
			return fmt.Errorf("queue status: entry %d is %+v, model says %+v", i, got.Jobs[i], want[i])
		}
	}
	return nil
}

// AfterRecovery is what RecoverInFlight must make of a pool: every
// machine offline until it heartbeats again, idle VMs parked offline,
// matched and claimed VMs and every job untouched.
func AfterRecovery(before PoolCounts) PoolCounts {
	after := PoolCounts{Machines: map[string]int64{}, VMs: map[string]int64{}, Jobs: before.Jobs, Running: before.Running}
	for state, n := range before.Machines {
		if state == core.MachineUp {
			state = core.MachineOffline
		}
		after.Machines[state] += n
	}
	for state, n := range before.VMs {
		if state == core.VMIdle {
			state = core.VMOffline
		}
		after.VMs[state] += n
	}
	return after
}

// CheckRestart verifies a reopened store against the state recorded
// before its files were copied.
func CheckRestart(before PoolCounts, beforeUsers map[string]core.UserStatsResponse,
	after *core.PoolStatusResponse, afterUsers map[string]core.UserStatsResponse) []error {
	var errs []error
	if err := CheckPool(AfterRecovery(before), after); err != nil {
		errs = append(errs, fmt.Errorf("restart: %w", err))
	}
	for o, b := range beforeUsers {
		if a := afterUsers[o]; a != b {
			errs = append(errs, fmt.Errorf("restart: owner %s UserStats %+v, before the copy %+v", o, a, b))
		}
	}
	return errs
}
