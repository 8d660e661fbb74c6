package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"aide"
	"aide/internal/remote"
	"aide/internal/telemetry"
	"aide/internal/vm"
)

// processStart anchors the cold-start figure: process start to the end
// of the first set-up.
var processStart = time.Now()

// workload is one named, seeded closed-loop scenario.
type workload struct {
	name string
	// workers is the number of closed-loop callers; never more than the
	// machine's CPUs, so the numbers measure the platform and not the
	// scheduler. The run sets GOMAXPROCS to it.
	workers int
	// setups is how many times an end-to-end run sets the workload up;
	// setup_s is the median.
	setups int
	// setup builds a ready-to-measure fixture: registries, surrogates
	// listening on loopback TCP, fleet refresh, and warm-up ops.
	setup func(ctx context.Context, cfg fixtureConfig) (fixture, error)
}

// fixtureConfig parameterizes a workload's set-up.
type fixtureConfig struct {
	seed int64
	// traced wires aide.WithTelemetry with enabled tracers into every
	// client and surrogate the fixture builds.
	traced bool
	// sink, when traced, receives the spans set-up itself records.
	sink *traceSink
}

// fixture is one workload's live platform.
type fixture interface {
	// op runs one closed-loop operation as worker w and returns any
	// error the application saw. When sink is non-nil the op records its
	// spans and counters there.
	op(ctx context.Context, w int, sink *traceSink) error
	// finish runs the end-of-run correctness gates.
	finish(ctx context.Context) error
	// close tears the fixture down and waits for everything it started.
	close() error
	// counters returns the cumulative client-side program counters of
	// the fixture's traced clients.
	counters() map[string]int64
	// lastClient returns a client whose monitor graph the partitioning
	// probes time, with its heap budget.
	lastClient() (*aide.Client, int64)
	surrogates() []*aide.Surrogate
	// surrogateSpans returns the surrogates' retained spans and how many
	// their rings dropped.
	surrogateSpans() ([]telemetry.Span, uint64)
}

var workloads = map[string]*workload{}

func register(w *workload) { workloads[w.name] = w }

func init() {
	register(javaNoteWorkload())
	register(remoteMixWorkload())
	register(churnWorkload())
}

// workersFor caps a workload's caller count at the machine's CPUs.
func workersFor(want int) int {
	if n := runtime.NumCPU(); want > n {
		return n
	}
	return want
}

// Failure categories. Every error the application sees lands in exactly
// one; nothing is set aside.
const (
	failAdmission = "admission_rejected"
	failShed      = "shed"
	failEvicted   = "evicted"
	failDrained   = "drained"
	failTimeout   = "call_timeout"
	failPeerGone  = "peer_gone"
	failVerify    = "verification"
	failOther     = "other"
)

var failCategories = []string{failAdmission, failShed, failEvicted, failDrained, failTimeout, failPeerGone, failVerify, failOther}

// classify maps an application-visible error to its failure category.
func classify(err error) string {
	switch {
	case errors.Is(err, errVerify):
		return failVerify
	case errors.Is(err, aide.ErrAdmissionRejected):
		return failAdmission
	case errors.Is(err, aide.ErrShed):
		return failShed
	case errors.Is(err, aide.ErrEvicted):
		return failEvicted
	case errors.Is(err, aide.ErrDrained):
		return failDrained
	case errors.Is(err, remote.ErrCallTimeout):
		return failTimeout
	case errors.Is(err, vm.ErrPeerGone), errors.Is(err, remote.ErrClosed), errors.Is(err, aide.ErrNoSurrogate):
		return failPeerGone
	}
	return failOther
}

// A phase is cut into windows of equal length. The latency figures, and
// with enough ops the throughput, are medians over the windows, so a
// burst of interference from outside the benchmark moves one window, not
// the run.
const (
	numWindows   = 10
	minWindowOps = 1000 // per window on average, or throughput is over the whole phase
)

// phase is one timed stretch of closed-loop ops.
type phase struct {
	start, end time.Time
	attempted  int64
	ok         int64
	lat        *histogram // successful ops
	windows    [numWindows]window
	fails      map[string]int64
	firstErr   map[string]error
	finalErrs  []error // end-of-run gate failures
	mem        runtime.MemStats
	winLen     time.Duration
	peakRSS    float64 // MiB, read when the last op ends, before any post-processing
}

// window is one slice of a phase: the ops that completed in it.
type window struct {
	ok  int64
	lat *histogram
}

// workerLog is one caller's private record, merged after the phase.
type workerLog struct {
	attempted, ok int64
	win           [numWindows]window
	fails         map[string]int64
	firstErr      map[string]error
	end           time.Time
}

// measure runs workers closed-loop callers against fx until seconds have
// passed; an op in flight at the deadline completes and counts. sinks,
// when non-nil, holds one trace sink per worker.
func measure(ctx context.Context, fx fixture, workers int, seconds float64, sinks []*traceSink) *phase {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ph := &phase{start: time.Now(), lat: &histogram{}, fails: map[string]int64{}, firstErr: map[string]error{}}
	length := time.Duration(seconds * float64(time.Second))
	deadline := ph.start.Add(length)
	winLen := length / numWindows
	logs := make([]workerLog, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var sink *traceSink
			if sinks != nil {
				sink = sinks[w]
			}
			lg := &logs[w]
			for i := range lg.win {
				lg.win[i].lat = &histogram{}
			}
			lg.fails = map[string]int64{}
			lg.firstErr = map[string]error{}
			for time.Now().Before(deadline) && ctx.Err() == nil {
				t0 := time.Now()
				err := fx.op(ctx, w, sink)
				t1 := time.Now()
				lg.attempted++
				if sink != nil {
					sink.ops = append(sink.ops, interval{t0, t1})
				}
				if err != nil {
					cat := classify(err)
					lg.fails[cat]++
					if lg.firstErr[cat] == nil {
						lg.firstErr[cat] = err
					}
					continue
				}
				lg.ok++
				wi := min(int(t1.Sub(ph.start)/winLen), numWindows-1)
				lg.win[wi].ok++
				lg.win[wi].lat.add(t1.Sub(t0))
			}
			lg.end = time.Now()
		}(w)
	}
	wg.Wait()
	ph.peakRSS = peakRSSMiB()
	runtime.ReadMemStats(&after)
	ph.mem = after
	ph.mem.Mallocs -= before.Mallocs
	ph.mem.TotalAlloc -= before.TotalAlloc
	ph.mem.PauseTotalNs -= before.PauseTotalNs
	ph.end = ph.start
	for i := range ph.windows {
		ph.windows[i].lat = &histogram{}
	}
	for i := range logs {
		lg := &logs[i]
		ph.attempted += lg.attempted
		ph.ok += lg.ok
		for i := range lg.win {
			ph.windows[i].ok += lg.win[i].ok
			ph.windows[i].lat.merge(lg.win[i].lat)
			ph.lat.merge(lg.win[i].lat)
		}
		for k, v := range lg.fails {
			ph.fails[k] += v
			if ph.firstErr[k] == nil {
				ph.firstErr[k] = lg.firstErr[k]
			}
		}
		if lg.end.After(ph.end) {
			ph.end = lg.end
		}
	}
	ph.winLen = winLen
	return ph
}

// windowed reports whether the phase has enough ops for per-window
// throughput.
func (ph *phase) windowed() bool { return ph.ok >= numWindows*minWindowOps }

// windowDur is window i's length; the last window also holds the ops
// that were in flight at the deadline.
func (ph *phase) windowDur(i int) time.Duration {
	if i == numWindows-1 {
		return ph.end.Sub(ph.start) - time.Duration(numWindows-1)*ph.winLen
	}
	return ph.winLen
}

// latencyQ is the q-quantile of op latency in seconds: the median over
// windows of each window's quantile, skipping windows no op ended in. A
// JavaNote op takes about a second, so a javanote-offload window holds
// 2–4 ops and its p99 is its slowest op; the median over windows of that
// is a typical slow op, where the slowest of the whole run would be one
// outlier.
func (ph *phase) latencyQ(q float64) float64 {
	per := make([]float64, 0, numWindows)
	for _, w := range ph.windows {
		if w.lat.n > 0 {
			per = append(per, w.lat.quantile(q))
		}
	}
	return median(per)
}

// minWindow is the fewest ops any window with ops holds.
func (ph *phase) minWindow() int64 {
	least := int64(-1)
	for _, w := range ph.windows {
		if w.ok > 0 && (least < 0 || w.ok < least) {
			least = w.ok
		}
	}
	return least
}

// noteFinal records an end-of-run gate or teardown failure.
func (ph *phase) noteFinal(err error) {
	if err != nil {
		ph.finalErrs = append(ph.finalErrs, err)
	}
}

func (ph *phase) failed() int64 { return ph.attempted - ph.ok }

// correct reports whether every output matched: no op failed
// verification and every end-of-run gate passed.
func (ph *phase) correct() bool { return ph.fails[failVerify] == 0 && len(ph.finalErrs) == 0 }

// throughput is successful ops per second: the median over windows when
// windowed, else over the whole phase, since a few ops per window would
// make every window's rate a small multiple of one op per window.
func (ph *phase) throughput() float64 {
	if !ph.windowed() {
		return float64(ph.ok) / ph.end.Sub(ph.start).Seconds()
	}
	per := make([]float64, 0, numWindows)
	for i, w := range ph.windows {
		per = append(per, float64(w.ok)/ph.windowDur(i).Seconds())
	}
	return median(per)
}

func (ph *phase) printWindows(out io.Writer) {
	if !ph.windowed() {
		fmt.Fprintf(out, "# throughput: %d ops is under %d, so it is over the whole run\n", ph.ok, numWindows*minWindowOps)
	}
	fmt.Fprint(out, "# windows (ops/s p50_ms p99_ms):")
	for i, w := range ph.windows {
		fmt.Fprintf(out, " [%.0f %.4f %.4f]", float64(w.ok)/ph.windowDur(i).Seconds(), w.lat.quantile(0.5)*1e3, w.lat.quantile(0.99)*1e3)
	}
	fmt.Fprintln(out)
}

// successFrac is 1 - failed/attempted: the end-to-end metric form of
// failed_frac, which would read 0 on a healthy run.
func (ph *phase) successFrac() float64 {
	if ph.attempted == 0 {
		return 0
	}
	return float64(ph.ok) / float64(ph.attempted)
}

func (ph *phase) printFailures(out io.Writer) {
	frac := 0.0
	if ph.attempted > 0 {
		frac = float64(ph.failed()) / float64(ph.attempted)
	}
	fmt.Fprintf(out, "# failures: attempted=%d failed=%d failed_frac=%g", ph.attempted, ph.failed(), frac)
	for _, c := range failCategories {
		fmt.Fprintf(out, " %s=%d", c, ph.fails[c])
	}
	fmt.Fprintln(out)
	for _, c := range failCategories {
		if err := ph.firstErr[c]; err != nil {
			fmt.Fprintf(out, "# first %s failure: %v\n", c, err)
		}
	}
	for _, err := range ph.finalErrs {
		fmt.Fprintf(out, "# end-of-run gate failed: %v\n", err)
	}
}
