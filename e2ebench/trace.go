package main

import (
	"fmt"
	"io"
	"sort"
	"time"

	"aide"
	"aide/internal/telemetry"
)

// Ring sizes for the traced run's tracers. A JavaNote op emits about
// 4,000 client spans, so one op never wraps a per-op client tracer;
// long-lived tracers are drained well before they fill.
const (
	opTracerSpans        = 1 << 16
	sessionTracerSpans   = 1 << 10
	surrogateTracerSpans = 1 << 16
)

type interval struct{ start, end time.Time }

func (iv interval) dur() time.Duration { return iv.end.Sub(iv.start) }

// benchSpan is a span the benchmark records around one public call.
type benchSpan struct {
	Name  string
	Start time.Time
	Dur   time.Duration
}

func (s benchSpan) end() time.Time { return s.Start.Add(s.Dur) }

// Benchmark span names: the public calls each op is built from.
const (
	spanRefresh = "fleet.refresh" // Coordinator.Refresh
	spanPlace   = "fleet.place"   // Coordinator.Place, including the attach it wraps
	spanAttach  = "aide.attach"   // Client.AttachContext inside Place
	spanBody    = "body"          // the application work between attach and close
	spanClose   = "aide.close"    // Client.Close
)

// traceSink is one worker's in-memory trace: its op intervals, the
// benchmark's spans, and the program's own spans. The traced run writes
// every sink out when it ends.
type traceSink struct {
	ops   []interval
	bench []benchSpan
	prog  []telemetry.Span
}

// record appends a benchmark span that started at start and ends now.
// It is a no-op on a nil sink, so untraced ops pay one nil check.
func (s *traceSink) record(name string, start time.Time) {
	if s == nil {
		return
	}
	s.bench = append(s.bench, benchSpan{Name: name, Start: start, Dur: time.Since(start)})
}

// takeAll appends every span a per-op tracer holds, failing if the ring
// wrapped and so lost spans of the op.
func (s *traceSink) takeAll(tr *aide.Tracer) error {
	if s == nil || tr == nil {
		return nil
	}
	ev := tr.Events()
	if tr.Total() > uint64(len(ev)) {
		return fmt.Errorf("tracer ring wrapped: %d spans emitted, %d kept", tr.Total(), len(ev))
	}
	s.prog = append(s.prog, ev...)
	return nil
}

// drainer pulls only the new spans out of a long-lived tracer.
type drainer struct {
	tr      *aide.Tracer
	drained uint64
}

// due reports whether the ring is half full since the last drain.
func (d *drainer) due(capacity int) bool {
	return d.tr.Total()-d.drained >= uint64(capacity/2)
}

// drainInto appends the spans emitted since the last drain.
func (d *drainer) drainInto(s *traceSink) error {
	total := d.tr.Total()
	fresh := total - d.drained
	ev := d.tr.Events()
	if fresh > uint64(len(ev)) {
		return fmt.Errorf("tracer ring wrapped: %d new spans, %d kept", fresh, len(ev))
	}
	s.prog = append(s.prog, ev[len(ev)-int(fresh):]...)
	d.drained = total
	return nil
}

// ledger attributes op time to layers. Every op's time is split exactly
// into these rows; unattributed is the part no span covers (client
// construction, gaps between calls).
type ledger struct {
	ops       int
	op        time.Duration
	rpc       time.Duration // client rpc spans not inside a repartition
	repart    time.Duration // repartition spans minus their migration
	migration time.Duration // migration spans
	vmLocal   time.Duration // body time no program span covers
	attach    time.Duration
	place     time.Duration // Place minus the attach it wraps
	refresh   time.Duration
	closeT    time.Duration
	unattrib  time.Duration
}

// addSink folds one worker's ops into the ledger. A worker's ops never
// overlap, so a span belongs to the op whose interval holds its start.
func (l *ledger) addSink(s *traceSink) {
	bench := append([]benchSpan(nil), s.bench...)
	sort.Slice(bench, func(i, j int) bool { return bench[i].Start.Before(bench[j].Start) })
	prog := append([]telemetry.Span(nil), s.prog...)
	sort.Slice(prog, func(i, j int) bool { return prog[i].Start.Before(prog[j].Start) })
	bi, pi := 0, 0
	for _, op := range s.ops {
		for bi < len(bench) && bench[bi].Start.Before(op.start) {
			bi++
		}
		for pi < len(prog) && prog[pi].Start.Before(op.start) {
			pi++
		}
		body := op
		var attach, place, refresh, closeT time.Duration
		for ; bi < len(bench) && !bench[bi].Start.After(op.end); bi++ {
			b := bench[bi]
			switch b.Name {
			case spanBody:
				body = interval{b.Start, b.end()}
			case spanAttach:
				attach += b.Dur
			case spanPlace:
				place += b.Dur
			case spanRefresh:
				refresh += b.Dur
			case spanClose:
				closeT += b.Dur
			}
		}
		var mig, rep, all []interval
		for ; pi < len(prog) && !prog[pi].Start.After(op.end); pi++ {
			p := prog[pi]
			iv := interval{p.Start, p.Start.Add(p.Dur)}
			switch p.Kind {
			case telemetry.SpanMigration:
				mig = append(mig, iv)
				rep = append(rep, iv)
			case telemetry.SpanRepartition:
				rep = append(rep, iv)
			case telemetry.SpanRPC:
			default:
				continue
			}
			all = append(all, iv)
		}
		m := cover(mig, body)
		r := cover(rep, body)
		a := cover(all, body)
		l.ops++
		l.op += op.dur()
		l.migration += m
		l.repart += r - m
		l.rpc += a - r
		l.vmLocal += body.dur() - a
		l.attach += attach
		l.place += place - attach
		l.refresh += refresh
		l.closeT += closeT
		l.unattrib += op.dur() - body.dur() - place - refresh - closeT
	}
}

// cover returns how much of within the union of ivs covers.
func cover(ivs []interval, within interval) time.Duration {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.start.Before(within.start) {
			iv.start = within.start
		}
		if iv.end.After(within.end) {
			iv.end = within.end
		}
		if iv.end.After(iv.start) {
			clipped = append(clipped, iv)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start.Before(clipped[j].start) })
	var total time.Duration
	var cur interval
	for i, iv := range clipped {
		switch {
		case i == 0:
			cur = iv
		case !iv.start.After(cur.end):
			if iv.end.After(cur.end) {
				cur.end = iv.end
			}
		default:
			total += cur.dur()
			cur = iv
		}
	}
	if len(clipped) > 0 {
		total += cur.dur()
	}
	return total
}

// perOpMs is a ledger row as mean milliseconds per op.
func (l *ledger) perOpMs(d time.Duration) float64 {
	if l.ops == 0 {
		return 0
	}
	return d.Seconds() * 1e3 / float64(l.ops)
}

func (l *ledger) print(out io.Writer, workload string) {
	fmt.Fprintf(out, "# ledger (%s, traced, mean per op over %d ops):\n", workload, l.ops)
	rows := []struct {
		name string
		d    time.Duration
	}{
		{"remote.rpc", l.rpc},
		{"partition.repartition", l.repart},
		{"aide.migration", l.migration},
		{"vm.local", l.vmLocal},
		{"aide.attach", l.attach},
		{"fleet.place", l.place},
		{"fleet.refresh", l.refresh},
		{"aide.close", l.closeT},
		{"unattributed", l.unattrib},
	}
	var sum time.Duration
	for _, r := range rows {
		sum += r.d
		fmt.Fprintf(out, "#   %-24s %12.4f ms  %6.2f%%\n", r.name, l.perOpMs(r.d), 100*r.d.Seconds()/l.op.Seconds())
	}
	fmt.Fprintf(out, "#   %-24s %12.4f ms  (rows sum to %.4f ms)\n", "op", l.perOpMs(l.op), l.perOpMs(sum))
}

// eventStats summarizes the program's and the benchmark's per-event
// spans over a traced run, including set-up (where remote-mix offloads).
type eventStats struct {
	migration, repartSelf, offload []float64 // ms per offload
	attach, place, refresh, closeT []float64 // ms per call
}

func (e *eventStats) addSink(s *traceSink) {
	var migs []interval
	for _, p := range s.prog {
		if p.Kind == telemetry.SpanMigration && p.Note == "offload" {
			migs = append(migs, interval{p.Start, p.Start.Add(p.Dur)})
			e.migration = append(e.migration, ms(p.Dur))
		}
	}
	for _, p := range s.prog {
		if p.Kind == telemetry.SpanRepartition && p.Note == "offload" {
			iv := interval{p.Start, p.Start.Add(p.Dur)}
			e.offload = append(e.offload, ms(p.Dur))
			e.repartSelf = append(e.repartSelf, ms(p.Dur-cover(migs, iv)))
		}
	}
	// Pair each Place with the attach calls inside it.
	var attachIn []benchSpan
	for _, b := range s.bench {
		switch b.Name {
		case spanAttach:
			e.attach = append(e.attach, ms(b.Dur))
			attachIn = append(attachIn, b)
		case spanRefresh:
			e.refresh = append(e.refresh, ms(b.Dur))
		case spanClose:
			e.closeT = append(e.closeT, ms(b.Dur))
		}
	}
	for _, b := range s.bench {
		if b.Name != spanPlace {
			continue
		}
		d := b.Dur
		for _, a := range attachIn {
			if !a.Start.Before(b.Start) && !a.end().After(b.end()) {
				d -= a.Dur
			}
		}
		e.place = append(e.place, ms(d))
	}
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }
