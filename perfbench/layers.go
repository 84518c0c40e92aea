package main

import (
	"math/rand"
	"runtime"
	"time"

	"rocksteady/internal/core"
	"rocksteady/internal/metrics"
	"rocksteady/internal/storage"
	"rocksteady/internal/wire"
)

// snapshot holds every counter the packages export, read at a phase
// boundary; per-layer metrics are deltas between two snapshots. The
// dispatch histograms are cumulative without a subtraction, so a snapshot
// also closes the histogram window: it reads the percentiles of the phase
// that just ended and resets the histograms for the next one.
type snapshot struct {
	at time.Time

	clientOps, clientRPCs, clientRetries, clientRefreshes int64 // client.Stats of the load clients
	messages                                              int64 // transport: cluster-wide deliveries
	dispatchBusy, workerBusy                              [2]int64
	shed                                                  int64
	wrongServer, retryReplies, pulls, pullBytes           int64 // server.Stats
	seqRetries, cleanedBytes                              int64 // storage
	flushes, flushEvents, flushNanos, bytesSent           int64 // backup.Replicator
	gcCycles                                              uint32
	gcPauseNs, allocBytes                                 uint64

	// Dispatch percentiles (µs) of the window this snapshot closed,
	// merged across both servers.
	fgWaitP99, fgServiceP50, bgWaitP99, ppWaitP99 float64
}

func takeSnapshot(r *rig) snapshot {
	s := snapshot{at: time.Now(), messages: r.messages()}
	for _, cl := range r.load {
		st := cl.Stats()
		s.clientOps += st.Ops.Load()
		s.clientRPCs += st.RPCs.Load()
		s.clientRetries += st.Retries.Load()
		s.clientRefreshes += st.MapRefreshes.Load()
	}
	var fgWait, fgService, bgWait, ppWait metrics.Histogram
	for i, srv := range r.servers {
		s.dispatchBusy[i] = srv.Node().DispatchBusyNanos()
		sched := srv.Scheduler()
		s.workerBusy[i] = sched.BusyNanos()
		shed, _ := sched.TasksShed()
		s.shed += shed
		st := srv.Stats()
		s.wrongServer += st.WrongServer.Load()
		s.retryReplies += st.Retries.Load()
		s.pulls += st.PullsServed.Load()
		s.pullBytes += st.PullBytesServed.Load()
		retries, _ := srv.HashTable().SeqlockStats()
		s.seqRetries += retries
		_, _, _, cleaned := srv.Log().Stats()
		s.cleanedBytes += cleaned
		fs := srv.Replicator().FlushStats()
		s.flushes += fs.Flushes
		s.flushEvents += fs.Events
		s.flushNanos += fs.Nanos
		s.bytesSent += srv.Replicator().BytesSent()

		fgWait.Merge(sched.QueueWaitHistogram(wire.PriorityForeground))
		fgService.Merge(sched.ServiceHistogram(wire.PriorityForeground))
		bgWait.Merge(sched.QueueWaitHistogram(wire.PriorityBackground))
		ppWait.Merge(sched.QueueWaitHistogram(wire.PriorityPriorityPull))
		for p := wire.Priority(0); p < wire.NumPriorities; p++ {
			sched.QueueWaitHistogram(p).Reset()
			sched.ServiceHistogram(p).Reset()
		}
	}
	s.fgWaitP99 = usOf(fgWait.Percentile(99))
	s.fgServiceP50 = usOf(fgService.Percentile(50))
	s.bgWaitP99 = usOf(bgWait.Percentile(99))
	s.ppWaitP99 = usOf(ppWait.Percentile(99))

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.gcCycles = ms.NumGC
	s.gcPauseNs = ms.PauseTotalNs
	s.allocBytes = ms.TotalAlloc
	return s
}

func usOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// ratio is a/b, or 0 when nothing happened.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// phaseLayers turns the snapshots around one phase into per-layer
// metrics, prefixed with pre ("" for the steady phase, "mig_" for the
// migration phase). ops counts the phase's completed and failed client
// ops; written counts its acknowledged write payload bytes. Worker busy
// fractions are shares of all of a server's workers.
func phaseLayers(pre string, a, b snapshot, ops, written int64, workers int) []metric {
	nsPerSec := b.at.Sub(a.at).Seconds() * 1e9
	fops := float64(ops)
	cops := float64(b.clientOps - a.clientOps)
	flushes := float64(b.flushes - a.flushes)
	return []metric{
		{"client." + pre + "rpcs_per_op", ratio(float64(b.clientRPCs-a.clientRPCs), cops), "rpc/op"},
		{"client." + pre + "retries_per_op", ratio(float64(b.clientRetries-a.clientRetries), cops), "retry/op"},
		{"client." + pre + "map_refreshes", float64(b.clientRefreshes - a.clientRefreshes), "count"},
		{"transport." + pre + "msgs_per_op", ratio(float64(b.messages-a.messages), fops), "msg/op"},
		{"transport." + pre + "dispatch_busy_frac.src", ratio(float64(b.dispatchBusy[0]-a.dispatchBusy[0]), nsPerSec), "frac"},
		{"transport." + pre + "dispatch_busy_frac.dst", ratio(float64(b.dispatchBusy[1]-a.dispatchBusy[1]), nsPerSec), "frac"},
		{"dispatch." + pre + "fg_queue_wait_p99_us", b.fgWaitP99, "us"},
		{"dispatch." + pre + "fg_service_p50_us", b.fgServiceP50, "us"},
		{"dispatch." + pre + "bg_queue_wait_p99_us", b.bgWaitP99, "us"},
		{"dispatch." + pre + "pp_queue_wait_p99_us", b.ppWaitP99, "us"},
		{"dispatch." + pre + "worker_busy_frac.src", ratio(float64(b.workerBusy[0]-a.workerBusy[0]), nsPerSec*float64(workers)), "frac"},
		{"dispatch." + pre + "worker_busy_frac.dst", ratio(float64(b.workerBusy[1]-a.workerBusy[1]), nsPerSec*float64(workers)), "frac"},
		{"dispatch." + pre + "tasks_shed", float64(b.shed - a.shed), "count"},
		{"server." + pre + "wrong_server_replies", float64(b.wrongServer - a.wrongServer), "count"},
		{"server." + pre + "retry_replies", float64(b.retryReplies - a.retryReplies), "count"},
		{"storage." + pre + "seqlock_retries", float64(b.seqRetries - a.seqRetries), "count"},
		{"backup." + pre + "events_per_flush", ratio(float64(b.flushEvents-a.flushEvents), flushes), "event/flush"},
		{"backup." + pre + "flush_us_mean", ratio(float64(b.flushNanos-a.flushNanos)/1e3, flushes), "us"},
		{"backup." + pre + "bytes_per_written_byte", ratio(float64(b.bytesSent-a.bytesSent), float64(written)), "B/B"},
		{"runtime." + pre + "gc_cycles", float64(b.gcCycles - a.gcCycles), "count"},
		{"runtime." + pre + "gc_pause_ms", float64(b.gcPauseNs-a.gcPauseNs) / 1e6, "ms"},
		{"runtime." + pre + "alloc_bytes_per_op", ratio(float64(b.allocBytes-a.allocBytes), fops), "B/op"},
	}
}

// logBytesPerLiveByte is segment memory held by both servers' logs per
// live byte, at the end of the run.
func logBytesPerLiveByte(r *rig) float64 {
	var segBytes, live int64
	for _, srv := range r.servers {
		segSize := srv.Config().SegmentSize
		if segSize <= 0 {
			segSize = storage.DefaultSegmentSize
		}
		segBytes += int64(srv.Log().SegmentCount()) * int64(segSize)
		_, l, _, _ := srv.Log().Stats()
		live += l
	}
	return ratio(float64(segBytes), float64(live))
}

// medianOf runs f reps times and returns the median of its results.
func medianOf(reps int, f func() float64) float64 {
	v := make([]float64, reps)
	for i := range v {
		v[i] = f()
	}
	return median(v)
}

// microReps is how many times each layer micro-timing repeats; the median
// is reported.
const microReps = 5

// wireReadRoundTrip times the wire work of one Read: marshalling and
// unmarshalling a workload Read request and its response, in ns.
func wireReadRoundTrip(in *inputs, table wire.TableID) float64 {
	const n = 20000
	return medianOf(microReps, func() float64 {
		start := time.Now()
		for i := 0; i < n; i++ {
			item := uint32(i % in.n)
			req := &wire.Message{ID: uint64(i), From: 900, To: 10, Op: wire.OpRead, Priority: wire.PriorityForeground,
				Body: &wire.ReadRequest{Table: table, Key: in.key(item)}}
			resp := &wire.Message{ID: uint64(i), From: 10, To: 900, Op: wire.OpRead, IsResponse: true,
				Body: &wire.ReadResponse{Status: wire.StatusOK, Version: uint64(i), Value: in.preload(item)}}
			roundTrip(req)
			roundTrip(resp)
		}
		return float64(time.Since(start).Nanoseconds()) / n
	})
}

// wirePullResponse times marshalling and unmarshalling one 20 KB
// PullResponse of workload records (the Pull byte budget), in µs.
func wirePullResponse(in *inputs, table wire.TableID) float64 {
	const budget = 20 << 10
	var recs []wire.Record
	size := 0
	for i := 0; size < budget && i < in.n; i++ {
		rec := wire.Record{Table: table, Version: uint64(i + 1), Key: in.key(uint32(i)), Value: in.preload(uint32(i))}
		size += rec.WireSize()
		recs = append(recs, rec)
	}
	msg := &wire.Message{ID: 1, From: 10, To: 11, Op: wire.OpPull, IsResponse: true,
		Body: &wire.PullResponse{Status: wire.StatusOK, Records: recs}}
	const n = 500
	return medianOf(microReps, func() float64 {
		start := time.Now()
		for i := 0; i < n; i++ {
			roundTrip(msg)
		}
		return float64(time.Since(start).Nanoseconds()) / n / 1e3
	})
}

func roundTrip(m *wire.Message) {
	buf := wire.MarshalMessagePooled(m)
	if _, _, err := wire.UnmarshalMessageShared(buf.B); err != nil {
		panic(err)
	}
	wire.ReleaseBuffer(buf)
}

// storageTimings builds a standalone hash table and log from the
// workload's keys and times AppendObjectW (with the hash-table insert the
// write path pairs it with) and HashTable.Get (with the key hash), in ns
// per call; each is the median of microReps fresh builds.
func storageTimings(in *inputs, seed int64) (getNs, appendNs float64) {
	n := min(in.n, 200_000)
	order := rand.New(rand.NewSource(seed)).Perm(n)
	gets := make([]float64, microReps)
	appends := make([]float64, microReps)
	for rep := range gets {
		ht := storage.NewHashTable(n)
		log := storage.NewLog(0, nil)
		start := time.Now()
		for i := 0; i < n; i++ {
			key := in.key(uint32(i))
			ref, _, err := log.AppendObjectW(0, 1, key, in.preload(uint32(i)))
			if err != nil {
				panic(err)
			}
			ht.Put(1, key, wire.HashKey(key), ref)
		}
		appends[rep] = float64(time.Since(start).Nanoseconds()) / float64(n)
		start = time.Now()
		for _, i := range order {
			key := in.key(uint32(i))
			if _, ok := ht.Get(1, key, wire.HashKey(key)); !ok {
				panic("standalone hash table lost a key")
			}
		}
		gets[rep] = float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	return median(gets), median(appends)
}

// traceLayers assembles the traced run's per-layer metrics: phase deltas
// of the exported counters, the migrations' own results, and the
// benchmark's timings of its calls into the wire, storage and coordinator
// layers.
func traceLayers(cfg config, r *rig, in *inputs, snaps [3]snapshot, steady, mig window,
	results []core.Result, calls []time.Duration, rb readback, failFrac float64) []metric {
	wrote := int64(keySize + valueSize)
	out := []metric{
		{"client.read_p99_us", pctUs(steady.reads, 99), "us"},
		{"client.write_p99_us", pctUs(steady.writes, 99), "us"},
		{"client.read_p999_us", pctUs(steady.reads, 99.9), "us"},
		{"client.mig_read_p99_us", pctUs(mig.reads, 99), "us"},
		{"client.mig_read_p999_us", pctUs(mig.reads, 99.9), "us"},
		{"client.mig_write_p99_us", pctUs(mig.writes, 99), "us"},
		{"client.failed_ops", float64(steady.failed + mig.failed), "count"},
		{"client.fail_frac", failFrac, "frac"},
		{"client.readback_keys", float64(rb.keys), "count"},
		{"client.readback_mismatches", float64(rb.mismatches), "count"},
	}
	out = append(out, phaseLayers("", snaps[0], snaps[1], steady.ops(), steady.ackedWrites()*wrote, cfg.workers)...)
	out = append(out, phaseLayers("mig_", snaps[1], snaps[2], mig.ops(), mig.ackedWrites()*wrote, cfg.workers)...)

	var pullRPCs, pulled, ppRPCs, ppRecords int64
	var call time.Duration
	for i, res := range results {
		pullRPCs += res.PullRPCs
		pulled += res.BytesPulled
		ppRPCs += res.PriorityPullRPCs
		ppRecords += res.PriorityPullRecords
		call += calls[i]
	}
	n := float64(len(results))
	getNs, appendNs := storageTimings(in, cfg.seed)
	out = append(out,
		metric{"server.mig_pull_bytes_per_pull", ratio(float64(snaps[2].pullBytes-snaps[1].pullBytes), float64(snaps[2].pulls-snaps[1].pulls)), "B/pull"},
		metric{"storage.log_bytes_per_live_byte", logBytesPerLiveByte(r), "B/B"},
		metric{"storage.cleaned_mb", float64(snaps[2].cleanedBytes-snaps[0].cleanedBytes) / 1e6, "MB"},
		metric{"storage.ht_get_ns", getNs, "ns"},
		metric{"storage.append_ns", appendNs, "ns"},
		metric{"wire.read_rt_ns", wireReadRoundTrip(in, r.table), "ns"},
		metric{"wire.pull_resp_marshal_us", wirePullResponse(in, r.table), "us"},
		metric{"core.pull_rpcs", ratio(float64(pullRPCs), n), "rpc/mig"},
		metric{"core.bytes_per_pull_rpc", ratio(float64(pulled), float64(pullRPCs)), "B/rpc"},
		metric{"core.priority_pull_rpcs", ratio(float64(ppRPCs), n), "rpc/mig"},
		metric{"core.priority_pull_records_per_rpc", ratio(float64(ppRecords), float64(ppRPCs)), "rec/rpc"},
		metric{"core.first_migration_mb_per_s", results[0].RateMBps(), "MB/s"},
		metric{"coordinator.migrate_call_us", ratio(usOf(call), n), "us"},
	)
	return out
}
