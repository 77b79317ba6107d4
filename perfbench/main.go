// Command perfbench is the repository benchmark: it drives ReMICSS end to
// end through the root facade on three workloads, checks every delivered
// byte and every retune decision, and prints its metrics by name and unit.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set; with -trace 1 the run
// also times each layer through decorators defined in this package and the
// metrics are the per-layer set. See README.md for the workloads, the
// metric tables and the layer-to-end-to-end map.
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
	"syscall"
	"time"

	"remicss/internal/gf256"
	"remicss/internal/udptrans"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// state holds the per-seed digests that later runs must reproduce, and
	// the span dump of traced runs.
	state string
	// out receives the human-readable report lines.
	out io.Writer
}

// workload runs one named workload and fills in its report.
type workload struct {
	name string
	why  string
	run  func(cfg config, rep *report) error
	// procs, when set, caps GOMAXPROCS for the workload.
	procs int
}

var workloads = []workload{
	// xfer-hmac hands every symbol from the generator to the socket readers
	// and back. On one processor that takes no wake-up across CPUs, and a
	// second CPU kept busy from outside the benchmark does not move its
	// figures; on two such a CPU cost a fifth of the throughput.
	{"xfer-hmac", "one authenticated Shamir session over three loopback UDP channels: split, HMAC, CRC32C and one syscall per share do the work", runXfer, 1},
	{"gateway-mux", "256 active of 100k registered gateway sessions on shared sockets: dispatch, batched I/O, marshal, trace ring and DRBG do the work", runGateway, 0},
	{"retune-drift", "adaptive controller retuning five drifting channels through the schedule cache: cache, LP and model do the work", runRetune, 0},
}

func main() {
	var (
		cfg   config
		trace int
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload name: "+workloadNames())
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; the same seed generates the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer breakdown, 0 the end-to-end run")
	flag.StringVar(&cfg.state, "state", filepath.Join(".bench_build", "perfbench"), "directory for per-seed digests and span dumps")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.out = os.Stdout
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// run executes one workload and returns the result line.
func run(cfg config) (result, error) {
	var w *workload
	for i := range workloads {
		if workloads[i].name == cfg.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		return result{}, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, workloadNames())
	}
	if cfg.seconds <= 0 {
		return result{}, errors.New("-seconds must be positive")
	}
	if _, err := hostFacts(); err != nil {
		return result{}, err
	}
	if w.procs > 0 && w.procs < runtime.GOMAXPROCS(0) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w.procs))
	}
	host, err := hostFacts()
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(cfg.out, "# workload %s seed %d seconds %g trace %v: %s\n", w.name, cfg.seed, cfg.seconds, cfg.trace, w.why)
	fmt.Fprintf(cfg.out, "# host %s\n", host)
	rep := &report{}
	if err := w.run(cfg, rep); err != nil {
		return result{}, fmt.Errorf("%s: %w", w.name, err)
	}
	if err := checkDigest(cfg, w.name, rep.digest); err != nil {
		rep.problems = append(rep.problems, err.Error())
	}
	rep.print(cfg.out)
	return rep.result(cfg.trace), nil
}

// hostFacts describes the machine a run's numbers belong to, and refuses a
// GOMAXPROCS above the CPU count: parallelism the host cannot supply would
// be reported as if it could.
func hostFacts() (string, error) {
	procs, ncpu := runtime.GOMAXPROCS(0), runtime.NumCPU()
	if procs > ncpu {
		return "", fmt.Errorf("GOMAXPROCS=%d exceeds the %d CPUs available; unset GOMAXPROCS or lower it", procs, ncpu)
	}
	rmem, err := defaultRcvbuf()
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d %s/%s %s gf256_kernel=%s udp_batch_mode=%s net.core.rmem_default=%d",
		ncpu, procs, runtime.GOOS, runtime.GOARCH, runtime.Version(), gf256.KernelName(), udptrans.BatchMode(), rmem), nil
}

// defaultRcvbuf reads SO_RCVBUF of a fresh UDP socket, which the kernel
// initializes from net.core.rmem_default; every socket the workloads open
// starts with this receive buffer.
func defaultRcvbuf() (int, error) {
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_DGRAM, 0)
	if err != nil {
		return 0, fmt.Errorf("probing the receive buffer: %w", err)
	}
	defer syscall.Close(fd)
	n, err := syscall.GetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_RCVBUF)
	if err != nil {
		return 0, fmt.Errorf("probing the receive buffer: %w", err)
	}
	return n, nil
}

// metricSpec is a gated metric's name and unit, as BENCHMARK.json lists it.
type metricSpec struct{ name, unit string }

// endToEndNames are the metrics a -trace 0 run reports, on every workload.
var endToEndNames = []metricSpec{
	{"setup_s", "s"},
	{"throughput_ops_per_s", "1/s"},
	{"latency_p50_us", "us"},
	{"latency_p75_us", "us"},
	{"ok_fraction", "ratio"},
	{"cpu_us_per_op", "us"},
	{"alloc_bytes_per_op", "B"},
	{"heap_mb", "MB"},
}

// perLayerNames are the metrics a -trace 1 run reports, on every workload;
// a layer the workload never calls reads 0 and the report says why.
var perLayerNames = []metricSpec{
	{"remicss.send.self_us", "us"},
	{"remicss.choose_us", "us"},
	{"sharing.split_us", "us"},
	{"sharing.combine_us", "us"},
	{"drbg.read_us", "us"},
	{"drbg.bytes_per_op", "B"},
	{"udptrans.send_us", "us"},
	{"udptrans.send_syscalls_per_datagram", "ratio"},
	{"udptrans.recv_syscalls_per_datagram", "ratio"},
	{"udptrans.kernel_drops", "count"},
	{"gateway.register_us", "us"},
	{"gateway.flush_us", "us"},
	{"gateway.dispatch.self_us", "us"},
	{"remicss.handle.self_us", "us"},
	{"remicss.useful_share_ratio", "ratio"},
	{"remicss.late_shares_per_op", "count"},
	{"remicss.duplicate_shares_per_op", "count"},
	{"remicss.evicted_symbols_per_op", "count"},
	{"remicss.invalid_shares_per_op", "count"},
	{"schedule.lookups_per_op", "count"},
	{"schedule.cache_hit_ratio", "ratio"},
	{"schedule.evictions_per_op", "count"},
	{"lp.warm_solves_per_op", "count"},
	{"lp.cold_solves_per_op", "count"},
	{"lp.pivots_per_solve", "count"},
	{"other_share", "ratio"},
	{"tracing.cpu_overhead_us_per_op", "us"},
	{"tracing.latency_p50_overhead_us", "us"},
}

// zeroLayers returns every per-layer metric at 0, for a workload to fill
// in the layers it calls.
func zeroLayers() map[string]metric {
	out := make(map[string]metric, len(perLayerNames))
	for _, m := range perLayerNames {
		out[m.name] = metric{0, m.unit}
	}
	return out
}

// addOverheadLayers sets the per-layer metrics every workload reports: the
// share of process CPU that no root span covers, and what tracing cost.
func addOverheadLayers(out map[string]metric, traced, plain *phase, rootNs int64) {
	perOp := func(p *phase) float64 { return float64(p.cpu.Nanoseconds()) / 1e3 / float64(p.attempted) }
	out["other_share"] = metric{math.Max(0, 1-float64(rootNs)/float64(traced.cpu.Nanoseconds())), "ratio"}
	out["tracing.cpu_overhead_us_per_op"] = metric{perOp(traced) - perOp(plain), "us"}
	out["tracing.latency_p50_overhead_us"] = metric{(percentile(traced.lat, 0.5) - percentile(plain.lat, 0.5)) / 1e3, "us"}
}

// describeSetup reports the spread of the set-up builds behind setup_s.
func describeSetup(rep *report, setups []float64) {
	s := append([]float64(nil), setups...)
	sort.Float64s(s)
	rep.line("setup_samples %d; setup_s min %.6g, median %.6g, max %.6g s", len(s), s[0], median(s), s[len(s)-1])
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects what a workload measured. The end-to-end and per-layer
// maps hold the gated metrics; lines holds everything else the report
// prints (the full end-to-end table including goodput and failed_fraction,
// loss attribution, traced-versus-untraced numbers).
type report struct {
	attempted, failed int64
	endToEnd          map[string]metric
	perLayer          map[string]metric
	// notApplicable explains per-layer metrics that read 0 because the
	// workload never calls that layer.
	notApplicable map[string]string
	lines         []string
	digest        string
	problems      []string
}

func (r *report) line(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) print(w io.Writer) {
	for _, l := range r.lines {
		fmt.Fprintln(w, l)
	}
	printMetrics(w, "end-to-end", r.endToEnd)
	printMetrics(w, "per-layer", r.perLayer)
	names := make([]string, 0, len(r.notApplicable))
	for n := range r.notApplicable {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "n/a %s: %s\n", n, r.notApplicable[n])
	}
	fmt.Fprintf(w, "digest %s\n", r.digest)
	for _, p := range r.problems {
		fmt.Fprintf(w, "FAIL %s\n", p)
	}
}

func printMetrics(w io.Writer, title string, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%s %s %.6g %s\n", title, n, m[n].Value, m[n].Unit)
	}
}

func (r *report) result(traced bool) result {
	res := result{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.endToEnd}
	if traced {
		res.Metrics = r.perLayer
	}
	return res
}

// checkDigest compares this run's digest with the one recorded for the same
// workload and seed by an earlier run in the same state directory, recording
// it on first sight. A difference means the program delivered other bytes
// or decided otherwise on identical inputs.
func checkDigest(cfg config, name, digest string) error {
	if digest == "" {
		return errors.New("no digest computed")
	}
	dir := filepath.Join(cfg.state, "digests")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("digest store: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%d", name, cfg.seed))
	prev, err := os.ReadFile(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		if err := os.WriteFile(path, []byte(digest+"\n"), 0o644); err != nil {
			return fmt.Errorf("digest store: %w", err)
		}
		return nil
	case err != nil:
		return fmt.Errorf("digest store: %w", err)
	}
	if want := strings.TrimSpace(string(prev)); want != digest {
		return fmt.Errorf("digest %s differs from %s recorded for seed %d", digest, want, cfg.seed)
	}
	return nil
}

// measuredSeconds splits the run: a traced run spends half its time on an
// untraced pass (the overhead baseline) and half traced.
func measuredSeconds(cfg config) time.Duration {
	d := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		d /= 2
	}
	return d
}
