package main

// Job shape and status query shared by every workload.
var jobPriorities = []float64{0.25, 0.5, 0.75, 1}

const (
	minLenSec  = 60
	maxLenSec  = 3600
	queueLimit = 20 // QueueStatus Limit
)

// spec describes one workload: the fleet, the queue, the per-round mix of
// Table 2 actions, and the storage layout.
type spec struct {
	name string
	// Fleet: machines × slots VMs; each machine draws one per-slot memory
	// size, so a machine's TotalMemoryMB is slots × that size.
	machines, slots int
	slotMemMB       []int64
	// Jobs: MinMemoryMB, owner, priority (one of jobPriorities) and
	// LengthSec (minLenSec..maxLenSec) are drawn per submit call; a call
	// submits jobsPerSubmit identical jobs.
	jobMemMB   []int64
	owners     int
	backlog    int // idle jobs preloaded at set-up
	preloadPer int // jobs per preload or fill submit call
	// fillBusy > 0 fills the pool after set-up, untimed, until that many
	// jobs are live; they then finish submitPerRound a round.
	fillBusy int
	// Per round.
	submitPerRound int
	jobsPerSubmit  int
	runRounds      int // rounds an accepted job runs before it completes
	steadyBeats    int // delta-free heartbeats, round-robin over the fleet
	statusOps      int // PoolStatus + QueueStatus pairs
	// dedicatedReader puts every status op on the second client, beside
	// the first client's steady heartbeats.
	dedicatedReader bool
	// Storage: poolPages 0 keeps the daemon's default WAL-only layout;
	// otherwise rows live in pages behind a pool of that many frames.
	poolPages       int
	pageSize        int // bytes; 0 is the pager's default (8 KiB)
	checkpointEvery int // rounds between checkpoints (paged only)
	// snapshotRound is the round after which the store's files are copied
	// for the restart measurement, and at which store_mb and peak_rss_mb
	// are read: a fixed amount of work, however fast the run goes.
	snapshotRound int
	// setups and restarts are how many set-ups and reopenings one run
	// makes; setup_s and restart_s are their medians.
	setups, restarts int
	// drain completes every queued job after the timed phase, so the
	// ledger can demand that each submitted job completed exactly once.
	drain bool
}

var workloads = map[string]*spec{
	// A few hundred small machines and a shallow queue: every submitted
	// job is matched, accepted and completed in its own round. WAL-only
	// store (the daemon's default), so restart replays the whole log.
	"lifecycle": {
		name:     "lifecycle",
		machines: 200, slots: 2,
		slotMemMB:      []int64{512, 1024, 2048},
		jobMemMB:       []int64{0, 256, 512, 1024, 2048},
		owners:         8,
		submitPerRound: 96, jobsPerSubmit: 4,
		runRounds:     1,
		statusOps:     2,
		snapshotRound: 40,
		setups:        15, restarts: 9,
		drain: true,
	},
	// The paper's upper scale, shaped after Figure 10's cluster
	// (experiments.PaperLargeCluster and RunLargeCluster): 50 machines ×
	// 200 VMs, each machine heartbeating every 5 minutes with all 200 VMs
	// in its envelope, nodes with idle VMs pulling matches every 30 s, and
	// a plateau turnover of ~1.67 jobs/s on a full pool. One round stands
	// for one 30 s pull period: 1.67 jobs/s × 30 s = 50 jobs start and 50
	// finish, and 50 machines × 30 s / 5 min = 5 periodic (delta-free)
	// heartbeats go out. The fill leaves 9,500 VMs busy and one schedule
	// batch (500) idle; jobs run 191 rounds (started in round r, reported
	// finished in round r+190), so 50 a round keep 9,500 busy for ever.
	// Not from Figure 10: 5 jobs per submit call (Figure 10 submits
	// 2,500-job pulses; smaller calls give submit latency samples every
	// round), two PoolStatus+QueueStatus pairs a round on the second
	// client beside the heartbeat writer, and 16 KiB pages: at the
	// pager's default 8 KiB a keyed heartbeat's 200-VM reply (~10.8 KB)
	// does not fit a page record, which fails page storage (see
	// CHANGES.md, FOUND).
	"fleet": {
		name:     "fleet",
		machines: 50, slots: 200,
		slotMemMB:      []int64{1024, 2048, 4096},
		jobMemMB:       []int64{0, 512, 1024, 2048, 4096},
		owners:         16,
		preloadPer:     100,
		fillBusy:       9500,
		submitPerRound: 50, jobsPerSubmit: 5,
		runRounds:       191,
		steadyBeats:     5,
		statusOps:       2,
		dedicatedReader: true,
		poolPages:       8192,
		pageSize:        16384,
		checkpointEvery: 5,
		snapshotRound:   12,
		setups:          9, restarts: 9,
		drain: true,
	},
	// A small fleet in front of a 100k-job backlog: full 500-slot
	// schedule cycles and status queries over the big jobs table, with a
	// buffer pool of about a fifth of that table.
	"deep_queue": {
		name:     "deep_queue",
		machines: 32, slots: 16,
		slotMemMB: []int64{1024, 2048, 4096},
		jobMemMB:  []int64{0, 512, 1024, 2048, 4096},
		owners:    8,
		backlog:   100000, preloadPer: 100,
		submitPerRound: 500, jobsPerSubmit: 100,
		runRounds:       1,
		steadyBeats:     64,
		statusOps:       2,
		poolPages:       200,
		checkpointEvery: 4,
		snapshotRound:   6,
		setups:          3, restarts: 3,
	},
}
