// Command lifebench is the repository's end-to-end benchmark: the paper's
// Table 2 job lifecycle (submit, ScheduleCycle, MATCHINFO heartbeat,
// AcceptMatch, completion heartbeat, PoolStatus/QueueStatus) driven
// through the real CAS assembly — core.New on a durable sqldb store, the
// daemon's admission gate, HTTPHandler on loopback — by clients built
// like cj2node and cj2sub. It checks every answer against its own model
// and prints each metric by name and unit, then one JSON result line.
//
//	lifebench --workload lifecycle --seed 1 --seconds 10 --trace 0
//
// --trace 1 runs the same workload with spans recorded on every other
// round and prints the per-layer metrics, the cost model's charges beside
// the measured split, and the tracing overhead.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

const maxDrain = 1000 // drain rounds before a still-queued job fails the run

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lifebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: lifecycle, fleet or deep_queue")
	seed := fs.Int64("seed", 1, "seed for every generated input")
	seconds := fs.Int("seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	spansDir := fs.String("spans-dir", "", "directory for the traced run's span dump (empty = no dump)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "lifebench: need --workload lifecycle|fleet|deep_queue, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	res, err := runWorkload(sp, *seed, time.Duration(*seconds)*time.Second, *trace == 1, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "lifebench: %s: %v\n", sp.name, err)
		return 1
	}
	if *trace == 1 && *spansDir != "" {
		if err := writeSpans(res.tr, filepath.Join(*spansDir, fmt.Sprintf("%s-seed%d.csv", sp.name, *seed))); err != nil {
			fmt.Fprintf(stderr, "lifebench: writing spans: %v\n", err)
			return 1
		}
	}
	out := map[string]any{"correct": res.correct, "attempted": res.attempted, "failed": res.failed, "metrics": res.metrics}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "lifebench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.correct || res.failed > 0 {
		return 1
	}
	return 0
}

type result struct {
	correct           bool
	attempted, failed int
	metrics           map[string]map[string]any
	tr                *tracer
}

func writeSpans(tr *tracer, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.dump(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func median[T ~int64 | ~float64](v []T) T {
	if len(v) == 0 {
		return 0
	}
	s := append([]T(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quantile is the nearest-rank q-quantile.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(k, 0)]
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// runWorkload sets up the instance the run keeps, fills the pool where
// the workload asks for it, runs a warm-up round and then whole rounds for
// the timed phase, drains the queue, checks the ledger, and measures
// further set-ups and restarts on a copy of the store taken at a fixed
// round.
func runWorkload(sp *spec, seed int64, timed time.Duration, traced bool, w io.Writer) (*result, error) {
	clients := min(2, runtime.NumCPU())
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	// Set-ups: the first builds the instance the run keeps; the others
	// build throwaway instances at moments spread across the timed phase,
	// so that setup_s's median samples the host at several moments.
	var setups []time.Duration
	setUp := func(tr *tracer) (*bench, error) {
		b := newBench(sp, seed, clients, tr)
		runtime.GC() // every set-up starts from a collected heap
		t0, s0 := time.Now(), hostSteal()
		if err := b.setup(); err != nil {
			b.teardown()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0)-(hostSteal()-s0))
		return b, nil
	}
	b, err := setUp(tr)
	if err != nil {
		return nil, err
	}
	defer b.teardown()
	extraSetUp := func() error {
		x, err := setUp(nil)
		if err != nil {
			return err
		}
		return x.teardown()
	}

	res := &result{tr: tr, metrics: map[string]map[string]any{}}
	report := func(name, unit string, v float64) {
		res.metrics[name] = map[string]any{"value": v, "unit": unit}
		fmt.Fprintf(w, "metric %-34s %14.4f %s\n", name, v, unit)
	}
	finish := func(err error) (*result, error) {
		for a := action(0); a < numActs; a++ {
			fmt.Fprintf(w, "ops %-9s attempted %7d failed %d timed-samples %d\n", a, b.attempted[a], b.failed[a], len(b.samples[a]))
			res.attempted += b.attempted[a]
			res.failed += b.failed[a]
		}
		for _, p := range b.problems {
			fmt.Fprintf(w, "check FAILED: %v\n", p)
		}
		res.correct = len(b.problems) == 0 && res.failed == 0 && err == nil
		if err != nil && !errors.Is(err, errChecks) {
			fmt.Fprintf(w, "run FAILED: %v\n", err)
		}
		return res, nil
	}

	if sp.fillBusy > 0 {
		t0 := time.Now()
		if err := b.fill(); err != nil {
			return finish(err)
		}
		fmt.Fprintf(w, "fill %d jobs live, %d queued, %.3f s\n", len(b.m.jobs), b.m.queued(), time.Since(t0).Seconds())
	}
	// Warm-up round: plans compiled, statement caches filled.
	if err := b.runRound(timedRound); err != nil {
		return finish(err)
	}

	var ctrs counters
	var tracedCalls int
	var tracedT, plainT time.Duration
	var tracedJobs, plainJobs int
	b.timedOn = true
	start, cpu0, steal0 := time.Now(), cpuTime(), hostSteal()
	var paused, cpuPaused, stealPaused time.Duration
	var peak float64
	var restarts []time.Duration
	reopen := func() error {
		d, errs, err := restart(sp, b.snap, b.owners)
		if err != nil {
			return err
		}
		b.check(errs...)
		restarts = append(restarts, d)
		runtime.GC() // the reopened store's garbage is not the next round's cost
		return nil
	}
	for {
		if time.Since(start)-paused >= timed && b.round >= sp.snapshotRound {
			break
		}
		on := tr != nil && b.round%2 == 1
		var s0 statsSnap
		if tr != nil {
			tr.on.Store(on)
			s0 = snapStats(b.in)
		}
		r0, jobs0, calls0 := time.Now(), b.completed, b.calls
		err := b.runRound(timedRound)
		d := time.Since(r0)
		if tr != nil {
			tr.endRound()
			if on {
				ctrs.add(s0, snapStats(b.in))
				tracedCalls += b.calls - calls0
				tracedT += d
				tracedJobs += b.completed - jobs0
			} else {
				plainT += d
				plainJobs += b.completed - jobs0
			}
		}
		if err != nil {
			return finish(err)
		}
		// The snapshot, the extra set-ups and the reopenings pause the
		// clock. Set-ups and reopenings are spread over the phase, one each
		// time another share of it has passed, so their medians sample the
		// host at several moments rather than once.
		passed := func(k, n int) bool { return time.Since(start)-paused >= timed*time.Duration(k)/time.Duration(n) }
		snapDue := b.round == sp.snapshotRound
		setupDue := len(setups) < sp.setups && passed(len(setups), sp.setups)
		reopenDue := b.snap != nil && len(restarts) < sp.restarts-1 && passed(len(restarts)+1, sp.restarts)
		if snapDue || setupDue || reopenDue {
			p0, c0, s0 := time.Now(), cpuTime(), hostSteal()
			if snapDue {
				if err := b.takeSnapshot(); err != nil {
					return finish(err)
				}
				peak = peakRSSMB()
			}
			if setupDue {
				if err := extraSetUp(); err != nil {
					return finish(err)
				}
			}
			if reopenDue {
				if err := reopen(); err != nil {
					return finish(err)
				}
			}
			paused += time.Since(p0)
			cpuPaused += cpuTime() - c0
			stealPaused += hostSteal() - s0
		}
	}
	elapsed := time.Since(start) - paused
	cpu := cpuTime() - cpu0 - cpuPaused
	stolen := hostSteal() - steal0 - stealPaused
	b.timedOn = false
	if tr != nil {
		tr.on.Store(false)
	}
	timedRounds := b.round - 1
	fmt.Fprintf(w, "workload %s seed %d clients %d timed-rounds %d timed-s %.3f jobs %d calls %d live %d queued %d\n",
		sp.name, seed, clients, timedRounds, elapsed.Seconds(), b.completed, b.calls, len(b.m.jobs), b.m.queued())
	ws, bs, ls := b.in.eng.WALStats(), b.in.eng.BufferPoolStats(), b.in.eng.LockStats()
	fmt.Fprintf(w, "engine commits %d fsyncs %d wal-bytes %d | pool %d frames %d resident %d hits %d misses %d evictions %d checkpoints | locks %d waits %d deadlocks | snapshot page file %d bytes, WAL %d bytes\n",
		ws.Commits, ws.Syncs, ws.BytesWritten, bs.Frames, bs.Resident, bs.Hits, bs.Misses, bs.Evictions, bs.Checkpoints,
		ls.Waited, ls.Deadlocks, len(b.snap.files[walPath+".pages"]), len(b.snap.files[walPath]))

	if sp.drain {
		for n := 0; len(b.m.jobs) > 0; n++ {
			if n == maxDrain {
				return finish(fmt.Errorf("drain: %d jobs still queued after %d rounds", len(b.m.jobs), n))
			}
			if err := b.runRound(drainRound); err != nil {
				return finish(err)
			}
		}
	}
	users, err := b.ownerStats()
	if err != nil {
		return finish(err)
	}
	hist, err := b.readHistory()
	if err != nil {
		return finish(err)
	}
	l := &b.m.ledger
	l.History, l.UserStats, l.Queued = hist, users, nil
	for id := range b.m.jobs {
		l.Queued = append(l.Queued, id)
	}
	b.check(CheckLedger(l)...)
	fmt.Fprintf(w, "ledger submitted %d completed %d queued %d history %d\n", len(l.Submitted), len(l.Reported), len(l.Queued), len(l.History))

	var layers []metric
	if tr != nil {
		lr, err := tr.fold()
		if err != nil {
			return finish(err)
		}
		overhead := 100 * (1 - safeDiv(safeDiv(float64(tracedJobs), tracedT.Seconds()), safeDiv(float64(plainJobs), plainT.Seconds())))
		fmt.Fprintf(w, "trace traced-rounds %.3f s %d jobs, untraced rounds %.3f s %d jobs, overhead %.2f%% of jobs_per_s\n",
			tracedT.Seconds(), tracedJobs, plainT.Seconds(), plainJobs, overhead)
		layers = layerMetrics(lr, &ctrs, b, tracedCalls, len(b.snap.files[walPath]), overhead)
		printModelled(w, lr)
	}
	if err := b.teardown(); err != nil {
		return finish(err)
	}

	for len(restarts) < sp.restarts {
		if err := reopen(); err != nil {
			return finish(err)
		}
	}
	for len(setups) < sp.setups {
		if err := extraSetUp(); err != nil {
			return finish(err)
		}
	}

	if tr != nil {
		for _, m := range layers {
			if m.ref {
				fmt.Fprintf(w, "reference %-31s %14.4f %s\n", m.name, m.value, m.unit)
				continue
			}
			report(m.name, m.unit, m.value)
		}
		return finish(nil)
	}
	sec := elapsed.Seconds()
	report("setup_s", "s", median(setups).Seconds())
	// The rates, like every set-up and reopening time, are over their
	// interval less the CPU time the hypervisor stole from the machine
	// meanwhile: on a shared virtual machine steal comes in spells of
	// minutes that no in-run median can step around, and the program
	// cannot cause or avoid it. The wall-clock rates are printed beside
	// them.
	net := sec - stolen.Seconds()
	report("jobs_per_s", "1/s", float64(b.completed)/net)
	report("calls_per_s", "1/s", float64(b.calls)/net)
	fmt.Fprintf(w, "host steal %.3f s per CPU of %.3f s timed (%.1f%%); wall-clock jobs_per_s %.4f calls_per_s %.4f\n",
		stolen.Seconds(), sec, 100*stolen.Seconds()/sec, float64(b.completed)/sec, float64(b.calls)/sec)
	for _, a := range []action{actSubmit, actSchedule, actHeartbeat, actAccept, actComplete, actStatus} {
		report(a.String()+"_p50_ms", "ms", ms(median(b.samples[a])))
	}
	report("cpu_us_per_call", "us", float64(cpu.Microseconds())/float64(b.calls))
	report("peak_rss_mb", "MB", peak)
	report("restart_s", "s", median(restarts).Seconds())
	report("store_mb", "MB", float64(b.snap.bytes())/1e6)
	fmt.Fprintf(w, "set-ups %s restarts %s\n", fmtDurations(setups), fmtDurations(restarts))
	// The heartbeat tail is a reference figure, not a gated metric: it
	// moves with the host's scheduling noise far more than any bound.
	hb := b.samples[actHeartbeat]
	fmt.Fprintf(w, "reference heartbeat_p99_ms %.4f ms over %d samples (%d beyond it)\n",
		ms(quantile(hb, 0.99)), len(hb), len(hb)/100)
	return finish(nil)
}

func fmtDurations(ds []time.Duration) string {
	parts := make([]string, len(ds))
	for i, d := range ds {
		parts[i] = fmt.Sprintf("%.3fs", d.Seconds())
	}
	return strings.Join(parts, ",")
}
