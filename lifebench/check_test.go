package main

import (
	"strings"
	"testing"

	"condorj2/internal/core"
)

// goodLedger is a consistent run: user00 completed jobs 1 and 2, user01
// completed job 3, job 4 is still queued.
func goodLedger() *Ledger {
	return &Ledger{
		Submitted: map[int64]JobSpec{
			1: {Owner: "user00", LengthSec: 100, Priority: 1},
			2: {Owner: "user00", LengthSec: 250, Priority: 0.5},
			3: {Owner: "user01", LengthSec: 60, Priority: 0.5},
			4: {Owner: "user01", LengthSec: 70, Priority: 0.25},
		},
		Reported: []int64{1, 3, 2},
		Queued:   []int64{4},
		History: []HistoryRow{
			{JobID: 1, Owner: "user00", LengthSec: 100, Outcome: "completed"},
			{JobID: 3, Owner: "user01", LengthSec: 60, Outcome: "completed"},
			{JobID: 2, Owner: "user00", LengthSec: 250, Outcome: "completed"},
		},
		UserStats: map[string]core.UserStatsResponse{
			"user00": {Owner: "user00", CompletedJobs: 2, TotalRuntimeSec: 350},
			"user01": {Owner: "user01", CompletedJobs: 1, TotalRuntimeSec: 60},
		},
	}
}

// goodCycle: four idle VMs, five idle jobs; the batch of 3 takes VMs
// 10, 11, 12 and the three queue-head jobs.
func goodCycle() *Cycle {
	return &Cycle{
		Batch:   3,
		IdleVMs: []CandVM{{ID: 12, MemoryMB: 2048}, {ID: 10, MemoryMB: 1024}, {ID: 11, MemoryMB: 512}, {ID: 13, MemoryMB: 4096}},
		Top: []CandJob{
			{ID: 7, Priority: 1, MemoryMB: 1024},
			{ID: 5, Priority: 0.5, MemoryMB: 0},
			{ID: 6, Priority: 0.5, MemoryMB: 4096}, // fits none of VMs 10-12
		},
		Next:    &CandJob{ID: 8, Priority: 0.25},
		Stats:   core.ScheduleStats{IdleVMs: 3, IdleJobs: 3, Matched: 2},
		Matched: map[int64]int64{7: 10, 5: 11},
	}
}

func wantRejected(t *testing.T, errs []error, substr string) {
	t.Helper()
	for _, err := range errs {
		if strings.Contains(err.Error(), substr) {
			return
		}
	}
	t.Fatalf("corruption not rejected: want an error containing %q, got %v", substr, errs)
}

func TestCheckerAcceptsConsistentRun(t *testing.T) {
	if errs := CheckLedger(goodLedger()); len(errs) > 0 {
		t.Fatalf("consistent ledger rejected: %v", errs)
	}
	if errs := CheckCycle(goodCycle()); len(errs) > 0 {
		t.Fatalf("consistent cycle rejected: %v", errs)
	}
}

func TestCheckerRejectsDoubleCompletion(t *testing.T) {
	l := goodLedger()
	l.Reported = append(l.Reported, 3)
	wantRejected(t, CheckLedger(l), "completion reported more than once")

	l = goodLedger()
	l.History = append(l.History, HistoryRow{JobID: 2, Owner: "user00", LengthSec: 250, Outcome: "completed"})
	wantRejected(t, CheckLedger(l), "more than one job_history row")
}

func TestCheckerRejectsLostJob(t *testing.T) {
	l := goodLedger()
	l.Queued = nil
	wantRejected(t, CheckLedger(l), "job 4: submitted but neither completed nor queued")
}

func TestCheckerRejectsLostCredit(t *testing.T) {
	l := goodLedger()
	l.UserStats["user00"] = core.UserStatsResponse{Owner: "user00", CompletedJobs: 1, TotalRuntimeSec: 100}
	wantRejected(t, CheckLedger(l), "owner user00")

	l = goodLedger()
	l.UserStats["user01"] = core.UserStatsResponse{Owner: "user01", CompletedJobs: 1, TotalRuntimeSec: 59}
	wantRejected(t, CheckLedger(l), "owner user01")
}

func TestCheckerRejectsWrongTopKMatch(t *testing.T) {
	// Job 8 sits below the queue head; matching it instead of job 5 is
	// not what best fit over the top of the queue does.
	c := goodCycle()
	c.Matched = map[int64]int64{7: 10, 8: 11}
	wantRejected(t, CheckCycle(c), "job 8 matched to VM 11, but best fit leaves it unmatched")

	// Right jobs, wrong VMs: job 7 (1024 MB) must take VM 10, the
	// smallest VM that fits it.
	c = goodCycle()
	c.Matched = map[int64]int64{7: 12, 5: 11}
	wantRejected(t, CheckCycle(c), "best fit says VM 10")

	// A queue head out of priority order is itself rejected.
	c = goodCycle()
	c.Top[0], c.Top[1] = c.Top[1], c.Top[0]
	wantRejected(t, CheckCycle(c), "queue head out of order")
}

func TestCheckerRejectsMemoryMisfit(t *testing.T) {
	c := goodCycle()
	c.Matched = map[int64]int64{7: 10, 5: 11, 6: 12}
	c.Stats.Matched = 3
	wantRejected(t, CheckCycle(c), "job 6 needs 4096 MB, VM 12 has 2048 MB")
}

func TestCheckerRejectsPoolMismatch(t *testing.T) {
	want := PoolCounts{
		Machines: map[string]int64{core.MachineUp: 2},
		VMs:      map[string]int64{core.VMIdle: 3, core.VMClaimed: 1},
		Jobs:     map[string]int64{core.JobRunning: 1},
		Running:  1,
	}
	got := &core.PoolStatusResponse{
		Machines:    []core.StateCount{{State: core.MachineUp, Count: 2}},
		VMs:         []core.StateCount{{State: core.VMClaimed, Count: 1}, {State: core.VMIdle, Count: 3}},
		Jobs:        []core.StateCount{{State: core.JobRunning, Count: 1}},
		RunningJobs: 1,
	}
	if err := CheckPool(want, got); err != nil {
		t.Fatalf("matching pool status rejected: %v", err)
	}
	got.VMs[1].Count = 2
	if err := CheckPool(want, got); err == nil {
		t.Fatal("pool status with a lost VM accepted")
	}
}

func TestCheckerRejectsStateLostAcrossRestart(t *testing.T) {
	before := PoolCounts{
		Machines: map[string]int64{core.MachineUp: 2},
		VMs:      map[string]int64{core.VMIdle: 3, core.VMClaimed: 1},
		Jobs:     map[string]int64{core.JobRunning: 1, core.JobIdle: 4},
		Running:  1,
	}
	users := map[string]core.UserStatsResponse{"user00": {Owner: "user00", CompletedJobs: 5, TotalRuntimeSec: 500}}
	after := &core.PoolStatusResponse{
		Machines:    []core.StateCount{{State: core.MachineOffline, Count: 2}},
		VMs:         []core.StateCount{{State: core.VMClaimed, Count: 1}, {State: core.VMOffline, Count: 3}},
		Jobs:        []core.StateCount{{State: core.JobIdle, Count: 4}, {State: core.JobRunning, Count: 1}},
		RunningJobs: 1,
	}
	if errs := CheckRestart(before, users, after, users); len(errs) > 0 {
		t.Fatalf("faithful restart rejected: %v", errs)
	}
	lost := map[string]core.UserStatsResponse{"user00": {Owner: "user00", CompletedJobs: 4, TotalRuntimeSec: 400}}
	wantRejected(t, CheckRestart(before, users, after, lost), "restart: owner user00")
	after.Jobs[0].Count = 3
	wantRejected(t, CheckRestart(before, users, after, users), "restart: pool status")
}
