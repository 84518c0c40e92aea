// Command rocksteady-bench regenerates the paper's evaluation figures
// (§4) on the in-process cluster and prints the same rows/series the
// paper plots. See EXPERIMENTS.md for the paper-vs-measured record.
//
// Usage:
//
//	rocksteady-bench -experiment fig9 -objects 1000000 -seconds 30
//	rocksteady-bench -experiment all -quick
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"time"

	"rocksteady/internal/bench"
)

func main() {
	var (
		experiment  = flag.String("experiment", "headline", "fig3|fig4|fig5|fig9|fig10|fig11|fig12|fig13|fig14|fig15|ablation|cleaner|headline|all")
		objects     = flag.Int("objects", 0, "records in the table under test (default 300000)")
		seconds     = flag.Int("seconds", 0, "measured seconds per experiment (default 10)")
		clients     = flag.Int("clients", 0, "closed-loop load generator goroutines (default 8)")
		workers     = flag.Int("workers", 0, "worker cores per server (default 8)")
		theta       = flag.Float64("theta", 0, "Zipfian skew for YCSB runs (default 0.99)")
		replication = flag.Int("replication", 0, "replication factor (default: per-experiment)")
		netbw       = flag.Float64("netbw", 0, "NIC bandwidth bytes/sec (default unlimited)")
		samplems    = flag.Int("samplems", 0, "timeline sampling interval in ms (default 1000)")
		quick       = flag.Bool("quick", false, "small fast run (CI-sized)")
		verbose     = flag.Bool("v", true, "print progress lines")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060); empty = off")
	)
	flag.Parse()
	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("pprof: %v", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "pprof listening on http://%s/debug/pprof/\n", *pprofAddr)
	}

	p := bench.DefaultParams()
	if *quick {
		p.Objects = 50_000
		p.Seconds = 4
		p.Clients = 4
	}
	if *objects > 0 {
		p.Objects = *objects
	}
	if *seconds > 0 {
		p.Seconds = *seconds
	}
	if *clients > 0 {
		p.Clients = *clients
	}
	if *workers > 0 {
		p.Workers = *workers
	}
	if *theta != 0 {
		p.Theta = *theta
	}
	if *replication > 0 {
		p.ReplicationFactor = *replication
	}
	if *netbw > 0 {
		p.NetworkBandwidth = *netbw
	}
	if *samplems > 0 {
		p.SampleMillis = *samplems
	}
	if *verbose {
		p.Out = os.Stderr
	}

	run := func(name string) error {
		switch name {
		case "fig3":
			return runFig3(p)
		case "fig4":
			return runFig4(p)
		case "fig5":
			return runFig5(p)
		case "fig9", "fig10", "fig11":
			return runFig9(p, name)
		case "fig12":
			return runFig12(p)
		case "fig13", "fig14":
			return runFig13(p, name)
		case "fig15":
			return runFig15(p)
		case "ablation":
			return runAblation(p)
		case "cleaner":
			return runCleaner(p)
		case "headline":
			return runHeadline(p)
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
	}

	names := []string{*experiment}
	if *experiment == "all" {
		names = []string{"fig3", "fig4", "fig5", "fig9", "fig12", "fig13", "fig15", "ablation", "cleaner", "headline"}
	}
	for _, name := range names {
		fmt.Printf("\n================ %s ================\n", name)
		if err := run(name); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
	}
}

func runFig3(p bench.Params) error {
	rows, err := bench.Fig3MultigetSpread(p)
	if err != nil {
		return err
	}
	fmt.Println("Figure 3: multiget locality (7-key multigets, 7 servers)")
	fmt.Printf("%-8s %14s %16s %14s %18s\n", "spread", "Mobjects/s", "dispatch load", "worker load", "single-server ref")
	for _, r := range rows {
		fmt.Printf("%-8d %14.2f %16.2f %14.2f %18.2f\n",
			r.Spread, r.MObjectsPerSec, r.DispatchLoad, r.WorkerLoad, r.SingleServerRef)
	}
	if len(rows) >= 7 && rows[6].MObjectsPerSec > 0 {
		fmt.Printf("locality gain (spread 1 vs 7): %.1fx\n", rows[0].MObjectsPerSec/rows[6].MObjectsPerSec)
	}
	return nil
}

func runFig4(p bench.Params) error {
	pts, err := bench.Fig4IndexScaling(p)
	if err != nil {
		return err
	}
	fmt.Println("Figure 4: index scaling (4-record scans, Zipfian θ=0.5 start keys)")
	fmt.Printf("%-26s %8s %14s %12s %12s %14s\n", "config", "clients", "kobjects/s", "median µs", "p99.9 µs", "dispatch load")
	for _, pt := range pts {
		fmt.Printf("%-26s %8d %14.1f %12.1f %12.1f %14.2f\n",
			pt.Config, pt.Clients, pt.KObjectsPerSec, pt.MedianMicros, pt.P999Micros, pt.DispatchLoad)
	}
	return nil
}

func runFig5(p bench.Params) error {
	series, err := bench.Fig5BaselineBreakdown(p)
	if err != nil {
		return err
	}
	fmt.Println("Figure 5: bottlenecks of log-replay (pre-existing) migration")
	fmt.Printf("%-24s %12s %10s\n", "variant", "MB/s", "seconds")
	for _, s := range series {
		fmt.Printf("%-24s %12.1f %10.2f\n", s.Variant, s.MeanMBps, s.Seconds)
	}
	return nil
}

func runFig9(p bench.Params, which string) error {
	for _, v := range []bench.Variant{bench.VariantRocksteady, bench.VariantNoPriorityPulls, bench.VariantSourceRetains} {
		res, err := bench.Fig9MigrationImpact(p, v)
		if err != nil {
			return err
		}
		fmt.Printf("\n--- %s (%s) ---\n", which, v)
		switch which {
		case "fig9":
			fmt.Printf("%-7s %12s %10s %s\n", "t(s)", "kops/s", "mig MB", "phase")
			for _, pt := range res.Points {
				fmt.Printf("%-7.2f %12.1f %10.1f %s\n", pt.At, pt.ThroughputKops, pt.MigratedMB, pt.Phase)
			}
		case "fig10":
			fmt.Printf("%-7s %12s %12s %s\n", "t(s)", "median µs", "p99.9 µs", "phase")
			for _, pt := range res.Points {
				fmt.Printf("%-7.2f %12.1f %12.1f %s\n", pt.At, pt.MedianMicros, pt.P999Micros, pt.Phase)
			}
		case "fig11":
			fmt.Printf("%-5s %9s %9s %9s %9s %s\n", "sec", "srcDisp", "dstDisp", "srcWork", "dstWork", "phase")
			for _, pt := range res.Points {
				fmt.Printf("%-5d %9.2f %9.2f %9.2f %9.2f %s\n", pt.Second,
					pt.SourceDispatch, pt.TargetDispatch, pt.SourceWorkers, pt.TargetWorkers, pt.Phase)
			}
		}
		fmt.Printf("migration: %s\n", res.Migration)
	}
	return nil
}

func runFig12(p bench.Params) error {
	series, err := bench.Fig12SkewImpact(p, nil)
	if err != nil {
		return err
	}
	fmt.Println("Figure 12: source dispatch load vs workload skew")
	fmt.Printf("%-8s %18s %18s %12s %12s\n", "theta", "dispatch before", "dispatch during", "MB moved", "seconds")
	for _, s := range series {
		fmt.Printf("%-8.2f %18.2f %18.2f %12.1f %12.2f\n",
			s.Theta, s.MeanBefore, s.MeanDuringMigration,
			float64(s.Migration.BytesPulled)/1e6, s.Migration.Duration().Seconds())
	}
	return nil
}

func runFig13(p bench.Params, which string) error {
	for _, mode := range []bench.Fig13Mode{bench.ModeAsyncBatched, bench.ModeSyncSingle} {
		res, err := bench.Fig13PriorityPullStrategies(p, mode)
		if err != nil {
			return err
		}
		fmt.Printf("\n--- %s (%s, %d PriorityPull RPCs) ---\n", which, mode, res.PriorityPullRPCs)
		if which == "fig13" {
			fmt.Printf("%-5s %12s %12s %s\n", "sec", "median µs", "p99.9 µs", "phase")
			for _, pt := range res.Points {
				fmt.Printf("%-5d %12.1f %12.1f %s\n", pt.Second, pt.MedianMicros, pt.P999Micros, pt.Phase)
			}
		} else {
			fmt.Printf("%-5s %9s %9s %9s %9s %s\n", "sec", "srcDisp", "dstDisp", "srcWork", "dstWork", "phase")
			for _, pt := range res.Points {
				fmt.Printf("%-5d %9.2f %9.2f %9.2f %9.2f %s\n", pt.Second,
					pt.SourceDispatch, pt.TargetDispatch, pt.SourceWorkers, pt.TargetWorkers, pt.Phase)
			}
		}
	}
	return nil
}

func runFig15(p bench.Params) error {
	pts, err := bench.Fig15PullReplayScalability(p, nil, nil)
	if err != nil {
		return err
	}
	fmt.Println("Figure 15: pull/replay scalability (isolated engines)")
	fmt.Printf("%-8s %12s %10s %12s\n", "side", "object size", "threads", "GB/s")
	for _, pt := range pts {
		fmt.Printf("%-8s %12d %10d %12.2f\n", pt.Side, pt.ObjectSize, pt.Threads, pt.GBPerSec)
	}
	return nil
}

func runAblation(p bench.Params) error {
	rows, err := bench.AblationLineageAndSideLogs(p)
	if err != nil {
		return err
	}
	fmt.Println("Ablation: lineage-deferred re-replication and side logs")
	fmt.Printf("%-50s %10s %12s\n", "variant", "MB/s", "full-is-x")
	for _, r := range rows {
		fmt.Printf("%-50s %10.1f %12.2f\n", r.Name, r.MigrationMBps, r.SpeedupVsFull)
	}
	return nil
}

func runCleaner(p bench.Params) error {
	rows, err := bench.CleanerUtilization(p, nil)
	if err != nil {
		return err
	}
	fmt.Println("Log cleaner: write amplification vs memory utilization (§2)")
	fmt.Printf("%-14s %20s %10s\n", "utilization", "write amplification", "passes")
	for _, r := range rows {
		fmt.Printf("%-14.2f %20.2f %10d\n", r.Utilization, r.WriteAmplification, r.CleanerPasses)
	}
	return nil
}

func runHeadline(p bench.Params) error {
	h, err := bench.Headline(p)
	if err != nil {
		return err
	}
	fmt.Println("Headline (§4.2): migration speed and latency impact")
	fmt.Printf("migration: %d records, %.1f MB/s, %v\n", h.RecordsMigrated, h.MigrationMBps, h.MigrationTime)
	fmt.Printf("migration phases: prologue %v, transfer %v, epilogue %v\n",
		h.Prologue.Round(10*time.Microsecond), h.Transfer.Round(10*time.Microsecond), h.Epilogue.Round(10*time.Microsecond))
	fmt.Printf("%-12s %14s %14s %14s\n", "phase", "median µs", "p99.9 µs", "kops/s")
	fmt.Printf("%-12s %14.1f %14.1f %14.1f\n", "before", h.MedianBefore, h.P999Before, h.ThroughputBeforeKops)
	fmt.Printf("%-12s %14.1f %14.1f %14.1f\n", "migrating", h.MedianDuring, h.P999During, h.ThroughputDuringKops)
	fmt.Printf("%-12s %14.1f %14.1f\n", "after", h.MedianAfter, h.P999After)
	return nil
}
