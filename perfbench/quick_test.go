package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// benchmarkSpec is the part of the repository's BENCHMARK.json that names
// the metrics.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestQuick runs every workload tiny, untraced and traced, and checks that
// the result line carries exactly the metrics BENCHMARK.json names, each
// finite and in its unit, and that the read-back check ran and passed.
// Workloads the benchmark has but BENCHMARK.json does not list (run by
// hand only) are checked too.
func TestQuick(t *testing.T) {
	spec := loadSpec(t)
	for _, sw := range spec.Workloads {
		if _, ok := findWorkload(sw.Name); !ok {
			t.Fatalf("BENCHMARK.json workload %q is unknown to the benchmark", sw.Name)
		}
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			res, err := run(defaultConfig(w, 7, 1, trace, true), time.Now())
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			var out bytes.Buffer
			if err := res.print(&out, trace); err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			checkResultLine(t, w.name, out.String(), want)
			if !strings.Contains(out.String(), "# migration.4=") || !strings.Contains(out.String(), "# trial.2=") {
				t.Errorf("%s: output lacks the per-trial or per-migration lines", w.name)
			}
		}
	}
}

// TestGateHolds checks that hold returns only once every driver is parked
// between ops, and that release lets them go on.
func TestGateHolds(t *testing.T) {
	g := newGate()
	var inFlight, ops atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if g.held.Load() {
					g.park()
				}
				inFlight.Add(1)
				time.Sleep(50 * time.Microsecond)
				ops.Add(1)
				inFlight.Add(-1)
			}
		}()
	}
	for round := 0; round < 20; round++ {
		g.hold(3)
		before := ops.Load()
		time.Sleep(time.Millisecond)
		if n := inFlight.Load(); n != 0 {
			t.Fatalf("round %d: %d ops in flight while held", round, n)
		}
		if ops.Load() != before {
			t.Fatalf("round %d: ops completed while held", round)
		}
		g.release()
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if ops.Load() == 0 {
		t.Fatal("no op ran")
	}
}

func checkResultLine(t *testing.T, name, out string, want []specMetric) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var line struct {
		Correct   bool  `json:"correct"`
		Attempted int64 `json:"attempted"`
		Failed    int64 `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("%s: last line is not the result: %v", name, err)
	}
	if !line.Correct {
		t.Errorf("%s: read-back check failed or did not run:\n%s", name, out)
	}
	if line.Attempted < 1 || line.Failed < 0 || line.Failed > line.Attempted {
		t.Errorf("%s: attempted=%d failed=%d", name, line.Attempted, line.Failed)
	}
	if len(line.Metrics) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json names %d", name, len(line.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := line.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", name, m.Name)
		case got.Unit != m.Unit:
			t.Errorf("%s: metric %s in %q, want %q", name, m.Name, got.Unit, m.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0) || got.Value < 0:
			t.Errorf("%s: metric %s = %v", name, m.Name, got.Value)
		}
	}
}

// TestValidFinal pins the read-back rules on hand-built write histories.
func TestValidFinal(t *testing.T) {
	in := genInputs(workload{readFrac: 0.5}, 4, 2, 1)
	a := &driver{id: 0, last: make([]lastWrite, in.n)}
	b := &driver{id: 1, last: make([]lastWrite, in.n)}
	drivers := []*driver{a, b}
	failed := map[uint64][]failedWrite{}
	buf := make([]byte, 0, valueSize)

	if !validFinal(in, drivers, failed, 0, in.preload(0)) {
		t.Error("unwritten item: preload rejected")
	}
	a.last[1] = lastWrite{seq: 5, issue: 100, ack: 110}
	if validFinal(in, drivers, failed, 1, in.preload(1)) {
		t.Error("lost write accepted")
	}
	if !validFinal(in, drivers, failed, 1, in.stamp(buf, 1, 0, 5)) {
		t.Error("last acknowledged write rejected")
	}
	if validFinal(in, drivers, failed, 1, in.stamp(buf, 1, 0, 4)) {
		t.Error("stale write accepted")
	}
	if validFinal(in, drivers, failed, 2, in.stamp(buf, 1, 0, 5)) {
		t.Error("another item's value accepted")
	}
	// b's write overlapped a's: either may be final.
	b.last[1] = lastWrite{seq: 9, issue: 105, ack: 120}
	if !validFinal(in, drivers, failed, 1, in.stamp(buf, 1, 0, 5)) || !validFinal(in, drivers, failed, 1, in.stamp(buf, 1, 1, 9)) {
		t.Error("overlapping writes: one rejected")
	}
	// b's write started after a's returned: only b's may be final.
	b.last[1] = lastWrite{seq: 9, issue: 111, ack: 120}
	if validFinal(in, drivers, failed, 1, in.stamp(buf, 1, 0, 5)) {
		t.Error("superseded write accepted")
	}
	// A failed write after the last ack may or may not have applied.
	failed[uint64(0)<<32|3] = []failedWrite{{item: 3, seq: 7, issue: 200, end: 300}}
	if !validFinal(in, drivers, failed, 3, in.stamp(buf, 3, 0, 7)) || !validFinal(in, drivers, failed, 3, in.preload(3)) {
		t.Error("failed write: applied or not, one outcome rejected")
	}
}
