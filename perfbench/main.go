// Command perfbench is the repository's benchmark: closed-loop YCSB
// traffic against a 2-server cluster, first in a steady phase and then
// while the upper half of the table's hash range migrates back and forth
// between the servers with Rocksteady, repeated over several trials of a
// fresh cluster each. It prints the end-to-end metrics
// (untraced run) or the per-layer metrics (-trace 1) by name and unit,
// then the tail latencies and failure fraction that carry no bound, and as
// its last line one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Usage (from the repository root, via the wrapper that builds it):
//
//	python3 perfbench/run.py --workload ycsb-b --seed 1 --seconds 20 --trace 0
//
// See perfbench/README.md for the workloads, the metrics and why the load
// is a closed loop.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"rocksteady/internal/core"
	"rocksteady/internal/wire"
)

// workload is one traffic mix and cluster shape.
type workload struct {
	name     string
	tcp      bool    // loopback TCP instead of the in-process fabric
	readFrac float64 // reads; the rest are writes
	theta    float64 // Zipfian skew; 0 picks keys uniformly
	rf       int     // replication factor
}

var workloads = []workload{
	{name: "ycsb-b", readFrac: 0.95, theta: 0.99},
	{name: "ycsb-b-tcp", tcp: true, readFrac: 0.95, theta: 0.99},
	{name: "ycsb-a-rf1", readFrac: 0.5, rf: 1},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// config is one run's shape. Every field but the workload and seed has a
// fixed default; quick mode shrinks the sizes for the package test.
type config struct {
	w       workload
	seed    int64
	trials  int           // clusters set up, driven and torn down one after the other
	warm    int           // leading trials that only warm the process up
	round   time.Duration // length of one steady-phase round
	rounds  int           // steady-phase rounds per trial
	pairs   int           // there-and-back migration pairs per trial
	warmup  time.Duration // per trial
	trace   bool
	records int
	clients int
	workers int
	slotOps int // pre-sized latency samples per client and steady round
	commit  string
}

const (
	defaultRecords = 400_000
	defaultClients = 2 // closed-loop client goroutines
	defaultWorkers = 2 // dispatch workers per server
	defaultTrials  = 6 // setup_s reports the median of their set-ups
	defaultWarm    = 1 // the first trial runs slower while the process faults its heap in
	defaultPairs   = 5 // migration pairs per trial
	roundSeconds   = 1.5
)

func main() {
	start := time.Now()
	var (
		name    = flag.String("workload", "ycsb-b", "workload name")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 10, "length of the steady phase, summed over the trials")
		trace   = flag.Int("trace", 0, "1 prints the per-layer metrics instead of the end-to-end ones")
		quick   = flag.Bool("quick", false, "tiny table and phases, for a smoke test")
		commit  = flag.String("commit", "", "source revision to stamp on the result")
	)
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	cfg := defaultConfig(w, *seed, *seconds, *trace == 1, *quick)
	cfg.commit = *commit
	res, err := run(cfg, start)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if err := res.print(os.Stdout, cfg.trace); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// defaultConfig shares the steady phase's seconds out over the measured
// trials, in rounds of about roundSeconds each.
func defaultConfig(w workload, seed int64, seconds float64, trace, quick bool) config {
	perTrial := seconds / (defaultTrials - defaultWarm)
	rounds := int(math.Round(perTrial / roundSeconds))
	if rounds < 1 {
		rounds = 1
	}
	cfg := config{
		w:       w,
		seed:    seed,
		trials:  defaultTrials,
		warm:    defaultWarm,
		round:   time.Duration(perTrial / float64(rounds) * float64(time.Second)),
		rounds:  rounds,
		pairs:   defaultPairs,
		warmup:  time.Second,
		trace:   trace,
		records: defaultRecords,
		clients: defaultClients,
		workers: defaultWorkers,
		slotOps: 200_000,
	}
	if quick {
		cfg.records = 20_000
		cfg.trials = 2
		cfg.warm = 0
		cfg.round = 150 * time.Millisecond
		cfg.rounds = 2
		cfg.pairs = 1
		cfg.warmup = 100 * time.Millisecond
		cfg.slotOps = 1 << 14
	}
	return cfg
}

type metric struct {
	name  string
	value float64
	unit  string
}

type result struct {
	env       [][2]string
	e2e       []metric // bounded in BENCHMARK.json: the untraced result line
	unbounded []metric // printed in the text table of every run only
	layers    []metric // the traced result line
	attempted int64
	failed    int64
	correct   bool
	kinds     map[string]int64
}

// upperHalf is the migrated range: the upper half of the hash space.
var upperHalf = wire.HashRange{Start: 1 << 63, End: math.MaxUint64}

func run(cfg config, start time.Time) (*result, error) {
	ctx := context.Background()
	in := genInputs(cfg.w, cfg.records, cfg.clients, cfg.seed)
	genTime := time.Since(start)

	var trials []*trial
	for i := 0; i < cfg.trials; i++ {
		t, err := runTrial(ctx, cfg, in, start, cfg.trace && i == cfg.trials-1)
		if err != nil {
			return nil, fmt.Errorf("trial %d: %w", i+1, err)
		}
		trials = append(trials, t)
		runtime.GC()
	}

	// Every trial's ops, failures and read-back count; the warm-up trials'
	// windows and migrations stay out of the metrics.
	res := &result{kinds: map[string]int64{}, correct: true}
	var steadyW, migW []window
	var results []core.Result
	var setups, heaps []float64
	var readbackKeys int64
	for i, t := range trials {
		setups = append(setups, t.setupS)
		res.attempted += t.attempted()
		res.failed += t.failed()
		res.correct = res.correct && t.rb.mismatches == 0 && t.wrongValues == 0
		readbackKeys += t.rb.keys
		for k, v := range t.kinds {
			res.kinds[k] += v
		}
		if i < cfg.warm {
			continue
		}
		steadyW = append(steadyW, t.steadyW...)
		migW = append(migW, t.migW...)
		results = append(results, t.results...)
		heaps = append(heaps, t.heapMB)
	}
	res.correct = res.correct && readbackKeys > 0
	steady, mig := pool(steadyW), pool(migW)
	failFrac := float64(res.failed) / float64(res.attempted)

	res.env = envStamp(cfg, len(results))
	for i, t := range trials {
		warm := ""
		if i < cfg.warm {
			warm = " (warm-up, not in the metrics)"
		}
		res.env = append(res.env, [2]string{fmt.Sprintf("trial.%d", i+1), fmt.Sprintf("set-up %.3fs, live heap %.1f MB, %d ops, read-back of %d keys%s", t.setupS, t.heapMB, t.attempted(), t.rb.keys, warm)})
	}
	var pulled int64
	var migTime time.Duration
	k := 0
	for _, t := range trials[cfg.warm:] {
		for j, m := range t.results {
			k++
			res.env = append(res.env, [2]string{fmt.Sprintf("migration.%d", k), fmt.Sprintf("%s from server %d; MigrateTablet call %v", m, m.Source, t.callTimes[j].Round(time.Microsecond))})
			pulled += m.BytesPulled
			migTime += m.Duration()
		}
	}
	for i, w := range steadyW {
		res.env = append(res.env, [2]string{fmt.Sprintf("steady.%d", i+1), w.String()})
	}
	for i, w := range migW {
		res.env = append(res.env, [2]string{fmt.Sprintf("mig.%d", i+1), w.String()})
	}
	res.e2e = []metric{
		{"setup_s", genTime.Seconds() + median(setups), "s"},
		{"heap_mb", median(heaps), "MB"},
		{"ops_per_s", medianOver(steadyW, window.opsPerSec), "1/s"},
		{"cpu_us_per_op", medianOver(steadyW, window.cpuPerOp), "us"},
		{"read_p50_us", pctUs(steady.reads, 50), "us"},
		{"write_p50_us", pctUs(steady.writes, 50), "us"},
		{"mig_ops_per_s", mig.opsPerSec(), "1/s"},
		{"mig_read_p50_us", pctUs(mig.reads, 50), "us"},
		{"migrate_mb_per_s", float64(pulled) / 1e6 / migTime.Seconds(), "MB/s"},
	}
	// Tails and failures swing with host contention and with counts of a
	// few hundred events, too far between runs for a bound (README.md).
	res.unbounded = []metric{
		{"read_p99_us", pctUs(steady.reads, 99), "us"},
		{"write_p99_us", pctUs(steady.writes, 99), "us"},
		{"mig_read_p99_us", pctUs(mig.reads, 99), "us"},
		{"mig_write_p99_us", pctUs(mig.writes, 99), "us"},
		{"fail_frac", failFrac, "frac"},
	}
	if cfg.trace {
		last := trials[len(trials)-1]
		res.layers = append(last.layers,
			metric{"trace.ops_per_s", medianOver(steadyW, window.opsPerSec), "1/s"},
			metric{"trace.read_p50_us", pctUs(steady.reads, 50), "us"},
			metric{"trace.mig_ops_per_s", mig.opsPerSec(), "1/s"},
			metric{"trace.snapshot_us", usOf(last.snapTime), "us"},
		)
	}
	return res, nil
}

// trial is one cluster's part of a run.
type trial struct {
	setupS, heapMB float64
	steadyW, migW  []window
	results        []core.Result
	callTimes      []time.Duration
	rb             readback
	kinds          map[string]int64 // failures by kind, read-back included
	wrongValues    int64
	layers         []metric // per-layer metrics, when this trial is traced
	snapTime       time.Duration
}

func (t *trial) attempted() int64 {
	var n int64
	for _, w := range t.steadyW {
		n += w.ops()
	}
	for _, w := range t.migW {
		n += w.ops()
	}
	return n
}

func (t *trial) failed() int64 {
	var n int64
	for _, w := range t.steadyW {
		n += w.failed
	}
	for _, w := range t.migW {
		n += w.failed
	}
	return n + t.rb.errors + t.rb.mismatches
}

// runTrial sets up a cluster and loads the table, warms it up, drives the
// steady rounds, then the migration pairs under the same traffic, one
// migration per window, and reads back every key written. With trace it
// also takes the phase-boundary snapshots and assembles the per-layer
// metrics.
func runTrial(ctx context.Context, cfg config, in *inputs, base time.Time, trace bool) (*trial, error) {
	t0 := time.Now()
	r, err := newRig(ctx, cfg.w, cfg.records, cfg.clients, cfg.workers)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer r.close()
	if err := r.preload(ctx, in); err != nil {
		return nil, fmt.Errorf("preload: %w", err)
	}
	t := &trial{setupS: time.Since(t0).Seconds(), kinds: map[string]int64{}}
	runtime.GC()
	t.heapMB = liveHeapBytes() / 1e6

	var slot atomic.Int32
	g := newGate()
	slots := 1 + cfg.rounds + 2*cfg.pairs
	drivers := make([]*driver, cfg.clients)
	for i := range drivers {
		drivers[i] = newDriver(i, r.load[i], r.table, in, &slot, g, base, cfg.rounds, slots, cfg.slotOps)
	}
	runtime.GC()

	var snaps [3]snapshot
	snap := func(i int) {
		if trace {
			s := time.Now()
			snaps[i] = takeSnapshot(r)
			t.snapTime += time.Since(s)
		}
	}
	// bounds[s] is when slot s began; bounds[s+1] is when it ended.
	bounds := make([]time.Time, slots+1)
	cpuAt := make([]time.Duration, slots+1)
	wait := startDrivers(ctx, drivers)
	time.Sleep(cfg.warmup)
	snap(0)
	for s := 1; s <= cfg.rounds; s++ {
		bounds[s], cpuAt[s] = time.Now(), processCPU()
		slot.Store(int32(s))
		time.Sleep(cfg.round)
	}
	for s := cfg.rounds + 1; s < slots && err == nil; s++ {
		bounds[s], cpuAt[s] = time.Now(), processCPU()
		slot.Store(int32(s))
		if s == cfg.rounds+1 {
			snap(1)
		}
		err = migrate(ctx, r, g, cfg.clients, (s-cfg.rounds-1)%2, &t.results, &t.callTimes)
	}
	bounds[slots], cpuAt[slots] = time.Now(), processCPU()
	slot.Store(slotStop)
	wait()
	snap(2)
	if err != nil {
		return nil, err
	}

	t.rb = checkWrites(ctx, r.ctl, r.table, in, drivers)
	for s := 1; s < slots; s++ {
		w := windowOf(drivers, s, bounds[s+1].Sub(bounds[s]))
		w.cpu = cpuAt[s+1] - cpuAt[s]
		if s <= cfg.rounds {
			t.steadyW = append(t.steadyW, w)
		} else {
			t.migW = append(t.migW, w)
		}
	}
	for _, d := range drivers {
		t.wrongValues += d.wrongValues
		for k, v := range d.kinds {
			t.kinds[k] += v
		}
	}
	for k, v := range t.rb.kinds {
		t.kinds[k] += v
	}
	if trace {
		steady, mig := pool(t.steadyW), pool(t.migW)
		attempted := steady.ops() + mig.ops()
		t.layers = traceLayers(cfg, r, in, snaps, steady, mig, t.results, t.callTimes, t.rb, float64(t.failed())/float64(attempted))
	}
	return t, nil
}

// migrate moves upperHalf off server src to the other server and waits
// for the migration to end, appending its result and the duration of its
// MigrateTablet call. The drivers hold at g for the call (see gate).
func migrate(ctx context.Context, r *rig, g *gate, clients, src int, results *[]core.Result, calls *[]time.Duration) error {
	k, dst := len(*results)+1, 1-src
	g.hold(clients)
	t := time.Now()
	err := r.ctl.MigrateTablet(ctx, r.table, upperHalf, r.servers[src].ID(), r.servers[dst].ID())
	*calls = append(*calls, time.Since(t))
	g.release()
	if err != nil {
		return fmt.Errorf("migration %d: %w", k, err)
	}
	m := r.managers[dst].Migration(r.table, upperHalf)
	if m == nil {
		return fmt.Errorf("migration %d: not registered at the target", k)
	}
	res := m.Wait()
	if res.Err != nil {
		return fmt.Errorf("migration %d: %w", k, res.Err)
	}
	*results = append(*results, res)
	return nil
}

// window is one slot's record across every client, latencies sorted.
type window struct {
	reads, writes []uint32
	failed        int64
	length        time.Duration
	cpu           time.Duration // process CPU time (user + system) in the window
}

// cpuPerOp is the process's CPU time per op, in µs: what an op costs,
// whether or not the machine gave the process all of its CPUs.
func (w window) cpuPerOp() float64 { return usOf(w.cpu) / float64(w.ops()) }

func (w window) String() string {
	return fmt.Sprintf("%.3fs %.0f ops/s read p50/p99 %.1f/%.1f us write p50/p99 %.1f/%.1f us cpu %.2f us/op failed %d",
		w.length.Seconds(), w.opsPerSec(), pctUs(w.reads, 50), pctUs(w.reads, 99), pctUs(w.writes, 50), pctUs(w.writes, 99), w.cpuPerOp(), w.failed)
}

func (w window) ops() int64 { return int64(len(w.reads) + len(w.writes)) }

func (w window) opsPerSec() float64 { return float64(w.ops()) / w.length.Seconds() }

// ackedWrites counts the window's writes that did not fail.
func (w window) ackedWrites() int64 {
	return int64(sort.Search(len(w.writes), func(i int) bool { return w.writes[i] == failedLatency }))
}

func windowOf(drivers []*driver, s int, length time.Duration) window {
	w := window{length: length}
	for _, d := range drivers {
		r := &d.rec[s]
		w.reads = append(w.reads, r.reads...)
		w.writes = append(w.writes, r.writes...)
		w.failed += r.failed
	}
	slices.Sort(w.reads)
	slices.Sort(w.writes)
	return w
}

// pool merges a phase's windows into one, for the phase totals and the
// per-layer diagnostics.
func pool(ws []window) window {
	var p window
	for _, w := range ws {
		p.reads = append(p.reads, w.reads...)
		p.writes = append(p.writes, w.writes...)
		p.failed += w.failed
		p.length += w.length
	}
	slices.Sort(p.reads)
	slices.Sort(p.writes)
	return p
}

// medianOver is the median over windows of a per-window metric.
func medianOver(ws []window, f func(window) float64) float64 {
	v := make([]float64, len(ws))
	for i, w := range ws {
		v[i] = f(w)
	}
	return median(v)
}

// pctUs is the p-th percentile of sorted ns samples, in µs: the smallest
// sample with at least p% of all samples at or below it.
func pctUs(sorted []uint32, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i]) / 1e3
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// processCPU is the CPU time the process has used, user plus system.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func liveHeapBytes() float64 {
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	return float64(sample[0].Value.Uint64())
}

func envStamp(cfg config, migrations int) [][2]string {
	commit := cfg.commit
	if commit == "" {
		commit = "unknown"
		if bi, ok := debug.ReadBuildInfo(); ok {
			for _, s := range bi.Settings {
				if s.Key == "vcs.revision" {
					commit = s.Value
				}
			}
		}
	}
	return [][2]string{
		{"workload", cfg.w.name},
		{"seed", fmt.Sprint(cfg.seed)},
		{"nproc", fmt.Sprint(runtime.NumCPU())},
		{"gomaxprocs", fmt.Sprint(runtime.GOMAXPROCS(0))},
		{"go", runtime.Version()},
		{"commit", commit},
		{"records", fmt.Sprint(cfg.records)},
		{"clients", fmt.Sprint(cfg.clients)},
		{"workers_per_server", fmt.Sprint(cfg.workers)},
		{"replication_factor", fmt.Sprint(cfg.w.rf)},
		{"trials", fmt.Sprint(cfg.trials)},
		{"warm_up_trials", fmt.Sprint(cfg.warm)},
		{"rounds_per_trial", fmt.Sprint(cfg.rounds)},
		{"round_s", fmt.Sprint(cfg.round.Seconds())},
		{"migrations", fmt.Sprint(migrations)},
	}
}

// print writes the stamp, a name/value/unit table, the failures by kind,
// and the JSON result line last.
func (res *result) print(out io.Writer, trace bool) error {
	for _, kv := range res.env {
		fmt.Fprintf(out, "# %s=%s\n", kv[0], kv[1])
	}
	shown := res.e2e
	if trace {
		shown = res.layers
	}
	for _, m := range shown {
		fmt.Fprintf(out, "%-44s %16.4f %s\n", m.name, m.value, m.unit)
	}
	for _, m := range res.unbounded {
		fmt.Fprintf(out, "%-44s %16.6f %s (no bound)\n", m.name, m.value, m.unit)
	}
	kinds := make([]string, 0, len(res.kinds))
	for k := range res.kinds {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	fmt.Fprintf(out, "# attempted=%d failed=%d correct=%v\n", res.attempted, res.failed, res.correct)
	for _, k := range kinds {
		fmt.Fprintf(out, "# failures %q: %d\n", k, res.kinds[k])
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct, res.attempted, res.failed, map[string]value{}}
	for _, m := range shown {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is not finite", m.name)
		}
		line.Metrics[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}
