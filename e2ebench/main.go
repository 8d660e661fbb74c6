// Command aide-e2e is the platform's end-to-end benchmark of record. It
// drives the live platform through its public API against in-process
// surrogates listening on loopback TCP, runs one of three seeded
// closed-loop workloads, checks every output, and prints each end-to-end
// metric by name with its unit. With --trace 1 it instead runs the
// workload untraced and then traced, and prints the per-layer ledger.
//
// Usage (from the repository root):
//
//	bash e2ebench/run.sh --workload javanote-offload --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is non-zero when a
// correctness gate fails. README.md in this directory documents the
// workloads, the metrics and the layers they cover.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// maxRunTime bounds a whole run: a platform hang must end the benchmark
// with an error, not stall whoever is waiting for its result.
const maxRunTime = 170 * time.Second

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runConfig is one invocation's parameters.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	traceDir string // where the traced run writes its spans
	setups   int    // set-up repetitions behind setup_s; 0 takes the workload's
	out      io.Writer
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: "+workloadNames())
		seed     = flag.Int64("seed", 1, "workload seed")
		seconds  = flag.Float64("seconds", 20, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1 runs the traced per-layer ledger instead of the end-to-end metrics")
		traceDir = flag.String("trace-dir", ".bench_build/traces", "directory the traced run writes its spans to")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "aide-e2e: --trace must be 0 or 1")
		os.Exit(2)
	}
	cfg := runConfig{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		traced:   *trace == 1,
		traceDir: *traceDir,
		out:      os.Stdout,
	}
	watchdog := time.AfterFunc(maxRunTime, func() {
		fmt.Fprintf(os.Stderr, "aide-e2e: run exceeded %v; aborting\n", maxRunTime)
		os.Exit(3)
	})
	res, err := run(context.Background(), cfg)
	watchdog.Stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "aide-e2e:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "aide-e2e:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "aide-e2e: correctness gate failed")
		os.Exit(1)
	}
}

// run executes one benchmark invocation and returns its result. Errors
// are reserved for runs that could not measure at all (bad flags, a
// platform that would not start); failed operations and failed gates
// come back in the result.
func run(ctx context.Context, cfg runConfig) (*result, error) {
	w, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, workloadNames())
	}
	if cfg.seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	if err := selfTestGates(); err != nil {
		return nil, fmt.Errorf("gate self-test: %w", err)
	}
	// One P per closed-loop caller. A single caller's op is sequential:
	// client and surrogate hand each round trip back and forth. With a
	// second P, the Go scheduler keeps that hand-off on one core or
	// spreads it across two, and which one it picks flips with other
	// load on the host, moving remote-mix p50 by 1.7x between runs. One
	// P measures the platform's per-message cost instead of that choice.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w.workers))
	printEnvelope(cfg.out, cfg)
	if cfg.traced {
		return runTraced(ctx, cfg, w)
	}
	return runEndToEnd(ctx, cfg, w)
}

// workloadList returns every implemented workload in name order.
func workloadList() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func workloadNames() string {
	b, _ := json.Marshal(workloadList()) // a []string always marshals
	return string(b)
}

// runEndToEnd sets the workload up several times, measures the last
// fixture untraced for cfg.seconds, and reports the end-to-end metrics.
// setup_s is the median time of one set-up call alone; the teardown of
// the fixture before it is not timed. The cold start, from process
// start to the end of the first set-up, is printed beside it.
func runEndToEnd(ctx context.Context, cfg runConfig, w *workload) (*result, error) {
	setups := cfg.setups
	if setups <= 0 {
		setups = w.setups
	}
	var setupTimes []float64
	var coldStart time.Duration
	var fx fixture
	for i := 0; i < setups; i++ {
		if fx != nil {
			if err := fx.close(); err != nil {
				return nil, fmt.Errorf("close set-up %d: %w", i, err)
			}
		}
		t0 := time.Now()
		var err error
		fx, err = w.setup(ctx, fixtureConfig{seed: cfg.seed})
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		if i == 0 {
			coldStart = time.Since(processStart)
		}
	}
	ph := measure(ctx, fx, w.workers, cfg.seconds, nil)
	finishErr := fx.finish(ctx)
	closeErr := fx.close()
	ph.noteFinal(finishErr)
	ph.noteFinal(closeErr)

	p50, p99 := ph.latencyQ(0.50), ph.latencyQ(0.99)
	res := &result{
		Correct:   ph.correct(),
		Attempted: ph.attempted,
		Failed:    ph.failed(),
		Metrics: map[string]metric{
			"setup_s":          {median(setupTimes), "s"},
			"throughput_ops_s": {ph.throughput(), "ops/s"},
			"latency_p50_ms":   {p50 * 1e3, "ms"},
			"latency_p99_ms":   {p99 * 1e3, "ms"},
			"success_frac":     {ph.successFrac(), "ratio"},
			"peak_rss_mb":      {ph.peakRSS, "MiB"},
		},
	}
	fmt.Fprintf(cfg.out, "# setup: cold start %.4f s (process start to the end of the first set-up); set-up alone, %d repetitions, median %.4f s (each: %s)\n",
		coldStart.Seconds(), len(setupTimes), median(setupTimes), fmtFloats(setupTimes, "%.4f"))
	fmt.Fprintf(cfg.out, "# latency: %d ops, all counted; the fewest in a window is %d%s\n", ph.ok, ph.minWindow(), p99Note(ph.minWindow()))
	ph.printWindows(cfg.out)
	ph.printFailures(cfg.out)
	printMetrics(cfg.out, res.Metrics)
	return res, nil
}

// p99Note flags a p99 that the windows cannot support: one needs at
// least 10 ops beyond it in every window.
func p99Note(minWindow int64) string {
	if minWindow < 1000 {
		return " (under 1000: a window's p99 is its slowest ops, and latency_p99_ms is the median over windows of those, not a supported percentile)"
	}
	return ""
}

func printMetrics(out io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "metric %-32s %16.6f %s\n", n, m[n].Value, m[n].Unit)
	}
}

func fmtFloats(v []float64, f string) string {
	s := ""
	for i, x := range v {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf(f, x)
	}
	return s
}
