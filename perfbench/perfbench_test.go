package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the benchmark must agree with.
type benchmarkFile struct {
	Command   []string `json:"command"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []metricSpec, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: benchmark has %d metrics, BENCHMARK.json %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s %d: benchmark %s [%s], BENCHMARK.json %s [%s]", kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	e2e := make([]struct{ Name, Unit string }, len(b.EndToEnd))
	for i, m := range b.EndToEnd {
		e2e[i].Name, e2e[i].Unit = m.Name, m.Unit
	}
	layers := make([]struct{ Name, Unit string }, len(b.PerLayer))
	for i, m := range b.PerLayer {
		layers[i].Name, layers[i].Unit = m.Name, m.Unit
	}
	check("end_to_end", endToEndNames, e2e)
	check("per_layer", perLayerNames, layers)
}

// TestWorkloadsShort runs every workload briefly, untraced and then traced
// with the same seed and state directory, so the traced run also checks
// the digest the untraced one recorded.
func TestWorkloadsShort(t *testing.T) {
	seconds := 1.0
	if testing.Short() {
		seconds = 0.3
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			state := t.TempDir()
			for _, traced := range []bool{false, true} {
				var out bytes.Buffer
				res, err := run(config{workload: w.name, seed: 7, seconds: seconds, trace: traced, state: state, out: &out})
				if err != nil {
					t.Fatal(err)
				}
				report := out.String()
				if !res.Correct {
					t.Fatalf("trace=%v: run not correct:\n%s", traced, report)
				}
				if res.Attempted < 1 || res.Failed < 0 || res.Failed > res.Attempted {
					t.Errorf("trace=%v: attempted %d, failed %d", traced, res.Attempted, res.Failed)
				}
				want := endToEndNames
				if traced {
					want = perLayerNames
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("trace=%v: %d metrics, want %d", traced, len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.name]
					if !ok || got.Unit != m.unit {
						t.Errorf("trace=%v: metric %s = %+v, want unit %s", traced, m.name, got, m.unit)
					}
				}
				if !traced {
					for _, m := range []string{"setup_s", "throughput_ops_per_s", "latency_p50_us", "cpu_us_per_op", "alloc_bytes_per_op", "heap_mb"} {
						if res.Metrics[m].Value <= 0 {
							t.Errorf("%s = %v, want > 0", m, res.Metrics[m].Value)
						}
					}
				}
				for _, line := range []string{"# host nproc=", "goodput_mbps", "failed_fraction", "latency_samples", "digest "} {
					if !strings.Contains(report, line) {
						t.Errorf("trace=%v: report lacks %q:\n%s", traced, line, report)
					}
				}
				if w.name != "retune-drift" && !strings.Contains(report, "unattributed=") {
					t.Errorf("trace=%v: report lacks the loss attribution", traced)
				}
			}
		})
	}
}

func TestTrackerCountsMismatch(t *testing.T) {
	tr := newTracker(4, false)
	ph := tr.reset(4)
	tr.open(1, 9, []byte("original"))
	tr.deliver(1, 9, []byte("tampered"))
	tr.open(2, 10, []byte("original"))
	tr.deliver(2, 10, []byte("original"))
	tr.deliver(2, 10, []byte("original")) // a second delivery is late, not a completion
	if ph.mismatches != 1 || ph.failed != 1 || ph.late != 1 || len(ph.lat) != 1 {
		t.Fatalf("mismatches %d failed %d late %d completed %d, want 1 1 1 1", ph.mismatches, ph.failed, ph.late, len(ph.lat))
	}
	if tr.open(2, 14, nil) {
		t.Error("reopening a settled slot reported a displaced symbol")
	}
	if !tr.open(2, 18, nil) || ph.failed != 2 {
		t.Errorf("reopening a pending slot: failed %d, want 2 and displaced", ph.failed)
	}
}

func TestDigestChangeFails(t *testing.T) {
	cfg := config{seed: 3, state: t.TempDir()}
	if err := checkDigest(cfg, "w", "aaaa"); err != nil {
		t.Fatal(err)
	}
	if err := checkDigest(cfg, "w", "aaaa"); err != nil {
		t.Fatalf("same digest: %v", err)
	}
	if err := checkDigest(cfg, "w", "bbbb"); err == nil {
		t.Fatal("changed digest passed")
	}
}

func TestHostFactsRejectsOversubscription(t *testing.T) {
	prev := runtime.GOMAXPROCS(runtime.NumCPU() + 1)
	defer runtime.GOMAXPROCS(prev)
	if _, err := hostFacts(); err == nil {
		t.Fatal("GOMAXPROCS above NumCPU was accepted")
	}
}

// TestTrackerOvertaking checks that, when every share is needed, a pending
// symbol is lost once overtakeMargin later symbols were delivered, that its
// resend completes the same op, and that without overtaking only the
// deadline settles it.
func TestTrackerOvertaking(t *testing.T) {
	for _, overtake := range []bool{false, true} {
		n := overtakeMargin + 2
		tr := newTracker(n, overtake)
		ph := tr.reset(n)
		for i := 0; i < n; i++ {
			tr.open(i, uint64(i), []byte{byte(i)})
		}
		tr.deliver(n-1, uint64(n-1), []byte{byte(n - 1)})
		failed, lost := tr.expire(deadline, nil, nil)
		want := 0
		if overtake {
			want = 1 // order 1 < lastDone - margin; order 2 is within it
		}
		if len(failed) != 0 || len(lost) != want || ph.failed != 0 {
			t.Errorf("overtake=%v: failed %v, lost %v, failed count %d, want %d lost", overtake, failed, lost, ph.failed, want)
		}
		if !overtake {
			continue
		}
		p, ok := tr.lostPayload(0)
		if !ok || !bytes.Equal(p, []byte{0}) {
			t.Fatalf("lost payload %v, %v", p, ok)
		}
		tr.deliver(0, 0, p) // the lost symbol turning up late settles nothing
		tr.reopen(0, uint64(n))
		tr.deliver(0, uint64(n), p)
		if ph.attempted != int64(n) || ph.failed != 0 || ph.resent != 1 || ph.late != 1 || len(ph.lat) != 2 {
			t.Errorf("after resend: attempted %d failed %d resent %d late %d completed %d, want %d 0 1 1 2",
				ph.attempted, ph.failed, ph.resent, ph.late, len(ph.lat), n)
		}
		if failed, _ := tr.expire(0, nil, nil); len(failed) != n-2 || ph.failed != int64(n-2) {
			t.Errorf("deadline: failed %d slots, count %d, want %d", len(failed), ph.failed, n-2)
		}
	}
}
