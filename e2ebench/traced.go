package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"aide/internal/telemetry"
)

// runTraced produces the per-layer ledger. It measures the workload
// untraced for half the run (the reference for trace.overhead_frac and
// the runtime rows), then traced for the other half with telemetry and
// enabled tracers on every client and surrogate, then runs the layer
// probes. End-to-end metrics never come from this run.
func runTraced(ctx context.Context, cfg runConfig, w *workload) (*result, error) {
	half := cfg.seconds / 2

	fxA, err := w.setup(ctx, fixtureConfig{seed: cfg.seed})
	if err != nil {
		return nil, fmt.Errorf("untraced set-up: %w", err)
	}
	phA := measure(ctx, fxA, w.workers, half, nil)
	phA.noteFinal(fxA.finish(ctx))
	phA.noteFinal(fxA.close())

	sinks := make([]*traceSink, w.workers)
	for i := range sinks {
		sinks[i] = &traceSink{}
	}
	fxB, err := w.setup(ctx, fixtureConfig{seed: cfg.seed, traced: true, sink: sinks[0]})
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	c0 := fxB.counters()
	phB := measure(ctx, fxB, w.workers, half, sinks)
	c1 := fxB.counters()
	phB.noteFinal(fxB.finish(ctx))
	// Sessions the traced fixture's surrogates admitted, set-up included
	// (remote-mix admits its one session there).
	admittedB := admitted(fxB)
	left := 0
	for _, s := range fxB.surrogates() {
		left += s.Sessions()
	}
	probeClient, probeHeap := fxB.lastClient()
	surSpans, surDropped := fxB.surrogateSpans()
	phB.noteFinal(fxB.close())

	var led ledger
	var ev eventStats
	for _, s := range sinks {
		led.addSink(s)
		ev.addSink(s)
	}

	// The probes are single-caller, so they run at one P on every
	// workload, like the single-caller workloads themselves.
	runtime.GOMAXPROCS(1)
	kinds, err := kindProbe(ctx, cfg.seed)
	if err != nil {
		return nil, err
	}
	codec, frames, err := codecProbe()
	if err != nil {
		return nil, err
	}
	floor, err := floorProbe(frames)
	if err != nil {
		return nil, fmt.Errorf("loopback floor: %w", err)
	}
	monFrac, err := monitorProbe()
	if err != nil {
		return nil, err
	}
	if probeClient == nil {
		return nil, errors.New("no client completed, so there is no graph to time")
	}
	part, err := partitionProbe(probeClient, probeHeap)
	if err != nil {
		return nil, fmt.Errorf("partition probe: %w", err)
	}

	opsB := float64(phB.attempted)
	perOp := func(name string) float64 { return float64(c1[name]-c0[name]) / opsB }
	m := map[string]metric{
		"vm.local_ms":                 {led.perOpMs(led.vmLocal), "ms"},
		"vm.local_invocations":        {perOp(ctrLocal), "count"},
		"vm.gc_cycles":                {perOp(ctrGC), "count"},
		"monitor.overhead_frac":       {monFrac, "ratio"},
		"graph.snapshot_ms":           {part.graph, "ms"},
		"mincut.candidates_ms":        {part.candidates, "ms"},
		"policy.choose_ms":            {part.choose, "ms"},
		"partition.repartition_ms":    {mean(ev.repartSelf), "ms"},
		"remote.rpc_ms":               {led.perOpMs(led.rpc), "ms"},
		"remote.requests_per_op":      {perOp(ctrRequests), "count"},
		"remote.bytes_per_op":         {perOp(ctrBytesSent) + perOp(ctrBytesRecv), "bytes"},
		"remote.send_retries":         {float64(c1[ctrSendRetries] - c0[ctrSendRetries]), "count"},
		"remote.call_timeouts":        {float64(c1[ctrTimeouts] - c0[ctrTimeouts]), "count"},
		"remote.orphan_replies":       {float64(c1[ctrOrphans] - c0[ctrOrphans]), "count"},
		"aide.attach_ms":              {mean(ev.attach), "ms"},
		"aide.offload_ms":             {mean(ev.offload), "ms"},
		"aide.migration_ms":           {mean(ev.migration), "ms"},
		"aide.close_ms":               {mean(ev.closeT), "ms"},
		"surrogate.sessions_admitted": {float64(admittedB), "count"},
		"surrogate.sessions_left":     {float64(left), "count"},
		"fleet.place_ms":              {mean(ev.place), "ms"},
		"fleet.refresh_ms":            {mean(ev.refresh), "ms"},
		"runtime.allocs_per_op":       {float64(phA.mem.Mallocs) / float64(phA.attempted), "count"},
		"runtime.alloc_bytes_per_op":  {float64(phA.mem.TotalAlloc) / float64(phA.attempted), "bytes"},
		"runtime.gc_pause_ms":         {float64(phA.mem.PauseTotalNs) / 1e6 / float64(phA.attempted), "ms"},
		"trace.overhead_frac":         {phB.lat.quantile(0.5)/phA.lat.quantile(0.5) - 1, "ratio"},
		"ledger.op_ms":                {led.perOpMs(led.op), "ms"},
		"ledger.unattributed_frac":    {led.unattrib.Seconds() / led.op.Seconds(), "ratio"},
	}
	for k := mixKind(0); k < numMixKinds; k++ {
		m["remote."+mixKindNames[k]+"_us"] = metric{kinds[k], "us"}
	}
	for _, sc := range sizeClasses {
		m["remote.codec_us."+sc.name] = metric{codec[sc.name], "us"}
		m["net.floor_us."+sc.name] = metric{floor[sc.name], "us"}
		m["remote.above_floor_us."+sc.name] = metric{kinds[sc.kind] - floor[sc.name], "us"}
	}

	path, err := writeTrace(cfg, sinks, surSpans, surDropped, c1)
	if err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	fmt.Fprintf(cfg.out, "# untraced half: %d ops, p50 %.4f ms; traced half: %d ops, p50 %.4f ms\n",
		phA.lat.n, phA.lat.quantile(0.5)*1e3, phB.lat.n, phB.lat.quantile(0.5)*1e3)
	fmt.Fprintf(cfg.out, "# trace written to %s (%d surrogate spans dropped by full rings)\n", path, surDropped)
	phA.printFailures(cfg.out)
	phB.printFailures(cfg.out)
	led.print(cfg.out, cfg.workload)
	fmt.Fprintf(cfg.out, "# unattributed share of op time: %.2f%%\n", 100*m["ledger.unattributed_frac"].Value)
	printMetrics(cfg.out, m)
	return &result{
		Correct:   phA.correct() && phB.correct(),
		Attempted: phA.attempted + phB.attempted,
		Failed:    phA.failed() + phB.failed(),
		Metrics:   m,
	}, nil
}

func admitted(fx fixture) int64 {
	var n int64
	for _, s := range fx.surrogates() {
		n += s.Stats().Admitted
	}
	return n
}

// traceHeader is the first line of the trace file.
type traceHeader struct {
	Workload       string           `json:"workload"`
	Seed           int64            `json:"seed"`
	SurrogateLost  uint64           `json:"surrogate_spans_dropped"`
	ClientCounters map[string]int64 `json:"client_counters"`
}

// traceRecord is every later line: one op interval, benchmark span, or
// program span. Times are nanoseconds since the Unix epoch.
type traceRecord struct {
	Src    string `json:"src"` // op, bench, client or surrogate
	Worker int    `json:"w"`
	Name   string `json:"name,omitempty"` // benchmark span name or program span kind
	Note   string `json:"note,omitempty"`
	ID     uint64 `json:"id,omitempty"`
	Parent uint64 `json:"parent,omitempty"`
	Start  int64  `json:"start"`
	Dur    int64  `json:"dur"`
	N      int64  `json:"n,omitempty"`
	Bytes  int64  `json:"bytes,omitempty"`
	Err    bool   `json:"err,omitempty"`
}

func progRecord(src string, w int, p telemetry.Span) traceRecord {
	return traceRecord{Src: src, Worker: w, Name: p.Kind.String(), Note: p.Note, ID: p.ID, Parent: p.Parent,
		Start: p.Start.UnixNano(), Dur: int64(p.Dur), N: p.N, Bytes: p.Bytes, Err: p.Err}
}

// writeTrace streams the traced run's spans to a JSON Lines file, one
// record at a time, so a long run never holds its encoding in memory.
func writeTrace(cfg runConfig, sinks []*traceSink, sur []telemetry.Span, lost uint64, counters map[string]int64) (string, error) {
	if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(cfg.traceDir, cfg.workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	err = enc.Encode(traceHeader{Workload: cfg.workload, Seed: cfg.seed, SurrogateLost: lost, ClientCounters: counters})
	for w, s := range sinks {
		for _, op := range s.ops {
			if err == nil {
				err = enc.Encode(traceRecord{Src: "op", Worker: w, Start: op.start.UnixNano(), Dur: int64(op.dur())})
			}
		}
		for _, b := range s.bench {
			if err == nil {
				err = enc.Encode(traceRecord{Src: "bench", Worker: w, Name: b.Name, Start: b.Start.UnixNano(), Dur: int64(b.Dur)})
			}
		}
		for _, p := range s.prog {
			if err == nil {
				err = enc.Encode(progRecord("client", w, p))
			}
		}
	}
	for _, p := range sur {
		if err == nil {
			err = enc.Encode(progRecord("surrogate", 0, p))
		}
	}
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}
