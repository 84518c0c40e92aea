package bench

import (
	"time"
)

// HeadlineResult captures the paper's §4.2 summary numbers for this
// implementation: migration rate and client latency during migration
// versus normal operation.
type HeadlineResult struct {
	MigrationMBps   float64
	MigrationTime   time.Duration
	RecordsMigrated int64
	// Migration phase durations (core.Result): where MigrationTime went.
	Prologue time.Duration
	Transfer time.Duration
	Epilogue time.Duration

	// Latencies in microseconds.
	MedianBefore float64
	P999Before   float64
	MedianDuring float64
	P999During   float64
	MedianAfter  float64
	P999After    float64

	ThroughputBeforeKops float64
	ThroughputDuringKops float64
}

// Headline runs the main YCSB-B migration experiment and reduces the
// timeline to the paper's headline comparison: "migrates at 758 MB/s with
// median and 99.9th percentile below 40 and 250 µs, versus 6 and 45 µs in
// normal operation." Absolute numbers here reflect Go on one machine; the
// ratios are the reproduction target.
func Headline(p Params) (*HeadlineResult, error) {
	res, err := Fig9MigrationImpact(p, VariantRocksteady)
	if err != nil {
		return nil, err
	}
	out := &HeadlineResult{
		MigrationMBps:   res.Migration.RateMBps(),
		MigrationTime:   res.Migration.Duration(),
		RecordsMigrated: res.Migration.RecordsPulled,
		Prologue:        res.Migration.Prologue,
		Transfer:        res.Migration.Transfer,
		Epilogue:        res.Migration.Epilogue,
	}
	agg := func(phase string) (med, p999, kops float64) {
		var n int
		for _, pt := range res.Points {
			if pt.Phase != phase || pt.MedianMicros == 0 {
				continue
			}
			med += pt.MedianMicros
			p999 += pt.P999Micros
			kops += pt.ThroughputKops
			n++
		}
		if n > 0 {
			med /= float64(n)
			p999 /= float64(n)
			kops /= float64(n)
		}
		return
	}
	out.MedianBefore, out.P999Before, out.ThroughputBeforeKops = agg("before")
	out.MedianDuring, out.P999During, out.ThroughputDuringKops = agg("migrating")
	out.MedianAfter, out.P999After, _ = agg("after")
	return out, nil
}
