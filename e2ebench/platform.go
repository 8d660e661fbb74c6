package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"aide"
	"aide/internal/fleet"
	"aide/internal/remote"
	"aide/internal/telemetry"
)

// Client-side program counters the traced run reads (registered by the
// vm and remote modules when aide.WithTelemetry is on).
const (
	ctrObjects     = "aide_vm_objects_created_total"
	ctrLocal       = "aide_vm_invocations_local_total"
	ctrRemote      = "aide_vm_invocations_remote_total"
	ctrGC          = "aide_vm_gc_cycles_total"
	ctrRequests    = "aide_remote_requests_sent_total"
	ctrBytesSent   = "aide_remote_bytes_sent_total"
	ctrBytesRecv   = "aide_remote_bytes_received_total"
	ctrSendRetries = "aide_remote_send_retries_total"
	ctrTimeouts    = "aide_remote_call_timeouts_total"
	ctrOrphans     = "aide_remote_orphan_replies_total"
)

// readCounters reads every counter out of a registry snapshot.
func readCounters(reg *aide.TelemetryRegistry) map[string]int64 {
	out := map[string]int64{}
	for _, f := range reg.Snapshot().Families {
		out[f.Name] = f.Value
	}
	return out
}

// platform is what every fixture shares: in-process surrogates listening
// on loopback TCP, a fleet coordinator over them, and the traced run's
// counter totals.
type platform struct {
	cfg      fixtureConfig
	reg      *aide.Registry
	surs     []*aide.Surrogate
	surTr    []*aide.Tracer
	coord    *fleet.Coordinator
	mu       sync.Mutex
	totals   map[string]int64
	last     *aide.Client
	lastHeap int64
	dials    atomic.Uint32
}

// newPlatform starts n surrogates on 127.0.0.1 and refreshes a fleet
// coordinator over them.
func newPlatform(ctx context.Context, cfg fixtureConfig, reg *aide.Registry, n int) (*platform, error) {
	p := &platform{cfg: cfg, reg: reg, totals: map[string]int64{}}
	targets := make([]fleet.Target, 0, n)
	for i := 0; i < n; i++ {
		var opts []aide.Option
		if cfg.traced {
			tr := aide.NewTracer(surrogateTracerSpans)
			tr.SetEnabled(true)
			p.surTr = append(p.surTr, tr)
			opts = append(opts, aide.WithTelemetry(aide.NewTelemetry(), tr))
		}
		s := aide.NewSurrogate(reg, opts...)
		addr, err := s.ListenAndServe("127.0.0.1:0")
		if err != nil {
			_ = p.close()
			return nil, err
		}
		p.surs = append(p.surs, s)
		targets = append(targets, &fleet.TCPTarget{Addr: addr})
	}
	p.coord = fleet.New(targets...)
	p.refresh(ctx, cfg.sink)
	return p, nil
}

// refresh re-probes the fleet.
func (p *platform) refresh(ctx context.Context, sink *traceSink) {
	t0 := time.Now()
	p.coord.Refresh(ctx)
	sink.record(spanRefresh, t0)
}

// newClient builds a client with the workload's options plus, when
// traced, a fresh telemetry registry and an enabled tracer of tracerSpans
// slots. counted forces the registry on untraced runs too (for gates
// that read program counters).
func (p *platform) newClient(heap int64, tracerSpans int, counted bool, extra ...aide.Option) (*aide.Client, *aide.TelemetryRegistry, *aide.Tracer) {
	opts := append([]aide.Option{aide.WithHeap(heap)}, extra...)
	var treg *aide.TelemetryRegistry
	var tr *aide.Tracer
	if p.cfg.traced || counted {
		treg = aide.NewTelemetry()
	}
	if p.cfg.traced {
		tr = aide.NewTracer(tracerSpans)
		tr.SetEnabled(true)
	}
	if treg != nil {
		opts = append(opts, aide.WithTelemetry(treg, tr))
	}
	return aide.NewClient(p.reg, opts...), treg, tr
}

// place attaches client to the best-ranked surrogate through the fleet
// coordinator, over a fresh loopback TCP connection.
func (p *platform) place(ctx context.Context, client *aide.Client, sink *traceSink) error {
	t0 := time.Now()
	_, err := p.coord.Place(ctx, func(t fleet.Target) error {
		tr, err := p.dial(ctx, t.(*fleet.TCPTarget))
		if err != nil {
			return err
		}
		a0 := time.Now()
		err = client.AttachContext(ctx, tr)
		sink.record(spanAttach, a0)
		return err
	})
	sink.record(spanPlace, t0)
	return err
}

// dial opens a session connection to t from the next of 250 loopback
// source addresses, as if each tenant were its own device. Every closed
// session leaves its port in TIME_WAIT for a minute; from one source
// address, session-churn's ~700 sessions/s would exhaust the ephemeral
// port range and stall connect() for tens of milliseconds.
func (p *platform) dial(ctx context.Context, t *fleet.TCPTarget) (remote.Transport, error) {
	src := &net.TCPAddr{IP: net.IPv4(127, 0, 1, byte(1+p.dials.Add(1)%250))}
	d := net.Dialer{LocalAddr: src}
	conn, err := d.DialContext(ctx, "tcp", t.Addr)
	if err != nil {
		return nil, fmt.Errorf("dial %s from %s: %w", t.Addr, src, err)
	}
	return remote.NewConnTransport(conn), nil
}

// closeClient closes client, recording the call.
func closeClient(client *aide.Client, sink *traceSink) error {
	t0 := time.Now()
	err := client.Close()
	sink.record(spanClose, t0)
	if err != nil {
		return fmt.Errorf("close client: %w", err)
	}
	return nil
}

// retire folds a finished client's counters into the run totals and
// keeps it as the partitioning probes' subject.
func (p *platform) retire(client *aide.Client, heap int64, treg *aide.TelemetryRegistry) {
	var c map[string]int64
	if treg != nil && p.cfg.traced {
		c = readCounters(treg)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for k, v := range c {
		p.totals[k] += v
	}
	p.last, p.lastHeap = client, heap
}

func (p *platform) counters() map[string]int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]int64, len(p.totals))
	for k, v := range p.totals {
		out[k] = v
	}
	return out
}

func (p *platform) lastClient() (*aide.Client, int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.last, p.lastHeap
}

func (p *platform) surrogates() []*aide.Surrogate { return p.surs }

// surrogateSpans returns every span the surrogates' tracers still hold
// and how many they dropped; the ledger does not use them, so a wrapped
// ring only shortens the written trace.
func (p *platform) surrogateSpans() ([]telemetry.Span, uint64) {
	var out []telemetry.Span
	var dropped uint64
	for _, tr := range p.surTr {
		ev := tr.Events()
		out = append(out, ev...)
		dropped += tr.Total() - uint64(len(ev))
	}
	return out, dropped
}

// sessionsDrained gates the surrogates' live session count back to 0.
func (p *platform) sessionsDrained() error {
	return waitZero("surrogate live sessions", p.liveSessions, 5*time.Second)
}

func (p *platform) liveSessions() int {
	n := 0
	for _, s := range p.surs {
		n += s.Sessions()
	}
	return n
}

func (p *platform) close() error {
	var errs []error
	for _, s := range p.surs {
		errs = append(errs, s.Close())
	}
	return errors.Join(errs...)
}
