package aide

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"aide/internal/graph"
	"aide/internal/mincut"
	"aide/internal/monitor"
	"aide/internal/policy"
	"aide/internal/remote"
	"aide/internal/telemetry"
	"aide/internal/vm"
)

// ErrNoSurrogate is returned when an operation requires an attached
// surrogate and none is connected.
var ErrNoSurrogate = errors.New("aide: no surrogate attached")

// ErrNotBeneficial is returned when the partitioning policy finds no
// beneficial offloading; the application stays local.
var ErrNotBeneficial = policy.ErrNotBeneficial

// ErrPinnedLocal is returned by Offload while the client is in the
// post-disconnection cooldown: after losing a surrogate the application
// runs locally for a few GC cycles before offloading may resume.
var ErrPinnedLocal = errors.New("aide: offloading pinned local after disconnection")

// OffloadReport summarizes one offloading operation.
type OffloadReport struct {
	// Classes lists the classes whose objects moved to the surrogate.
	Classes []string

	// Objects and Bytes count what moved.
	Objects int
	Bytes   int64

	// CutBytes is the historical information transfer across the chosen
	// cut; FreedFraction relates Bytes to the heap capacity.
	CutBytes      int64
	FreedFraction float64

	// At is the client's simulated clock when the offload completed.
	At time.Duration
}

// Client is the platform on the resource-constrained device: a VM plus
// AIDE's monitoring, partitioning, and remote-invocation modules.
type Client struct {
	opts options

	reg *Registry
	vm  *vm.VM
	mon *monitor.Monitor

	// pm and tracer instrument the partitioning pipeline; both are
	// nil-safe no-ops without WithTelemetry.
	pm     platformMetrics
	tracer *telemetry.Tracer

	mu sync.Mutex
	// peers is positional: a slot keeps its index for the life of the
	// client because offloaded and the VM's stubs address surrogates by
	// index. A disconnected surrogate's slot is nil, never removed.
	peers       []*remote.Peer
	trigger     policy.MemoryTrigger
	disc        policy.DisconnectTrigger
	adaptive    bool
	reports     []OffloadReport
	rejected    int
	offloaded   map[string]int // class → index of the surrogate hosting it
	gcCount     int
	rebalances  int
	disconnects int

	// handoffs tracks, per peer slot, the waiter that calls bounced with
	// ErrDrained block on until a live handoff re-points the slot;
	// handoffsDone counts completed handoffs. Both under c.mu.
	handoffs     map[int]*handoffWait
	handoffsDone int

	// Speculation outcome counters (see speculate.go), under c.mu.
	specLocalWins, specRemoteWins, specMisses int64

	// discMu serializes disconnect handling so that concurrent failure
	// observers (the receive loop's OnDown, failed calls entering the
	// VM's failover hook) each return only after the peer's stubs have
	// been reclaimed locally.
	discMu sync.Mutex

	// bg joins the asynchronous peer-close goroutines disconnect
	// handling spawns; Detach waits for them so no goroutine outlives
	// the client. Add happens under c.mu in the same critical section
	// that claims the peer slot, so it is serialized against Detach's
	// peers-clearing section and can never race a Wait at zero.
	bg sync.WaitGroup
}

// NewClient builds a client platform over the shared class registry.
func NewClient(reg *Registry, opts ...Option) *Client {
	o := defaultOptions()
	for _, opt := range opts {
		opt(&o)
	}
	c := &Client{opts: o, reg: reg}
	c.pm = newPlatformMetrics(o.telemetry)
	c.tracer = o.tracer
	c.vm = vm.New(reg, vm.Config{
		Role:                vm.RoleClient,
		HeapCapacity:        o.heap,
		CPUSpeed:            o.cpuSpeed,
		MonitorCostPerEvent: o.monCost,
		Telemetry:           o.telemetry,
		Tracer:              o.tracer,
	})
	c.vm.SetStatelessNativeLocal(o.stateless)
	if o.monitor {
		c.mon = monitor.New(monitor.RegistryMeta(reg))
		c.vm.SetHooks(c.mon)
		if o.lazyMigration {
			min := o.lazyMinAccesses
			if min < 1 {
				min = o.params.LazyMinAccesses
			}
			c.vm.SetFieldPredictor(c.mon.FieldPredictor(min))
		}
	}
	c.trigger = policy.MemoryTrigger{
		FreeFraction: o.params.TriggerFreeFraction,
		Tolerance:    o.params.Tolerance,
	}
	c.disc = policy.DisconnectTrigger{CooldownCycles: o.disconnectCool}
	c.offloaded = make(map[string]int)
	c.handoffs = make(map[int]*handoffWait)
	c.vm.SetFailoverHandler(c.failoverPeer)
	c.vm.SetDrainHandler(c.waitHandoff)
	return c
}

// Thread returns an execution context for running application code.
func (c *Client) Thread() *Thread { return c.vm.NewThread() }

// NewPipeline starts a promise pipeline: a chain of dependent remote
// invocations that ships as one wire frame when every receiver lives on
// the same surrogate.
//
//	p := c.NewPipeline()
//	a := p.Invoke(obj, "f")
//	b := p.Invoke(a, "g", a) // receiver and argument from a's promise
//	res, err := p.Run(ctx)
//
// Against an old surrogate without multi-invoke support, or after a
// mid-frame disconnection, the pipeline transparently degrades to
// sequential calls.
func (c *Client) NewPipeline() *Pipeline { return c.vm.NewPipeline() }

// VM exposes the underlying client VM (roots, heap statistics, clock).
func (c *Client) VM() *vm.VM { return c.vm }

// Clock returns the client's simulated clock.
func (c *Client) Clock() time.Duration { return c.vm.Clock() }

// Heap returns client heap statistics.
func (c *Client) Heap() vm.HeapStats { return c.vm.Heap() }

// Graph returns a snapshot of the monitored execution graph.
func (c *Client) Graph() (*graph.Graph, error) {
	if c.mon == nil {
		return nil, errors.New("aide: monitoring disabled")
	}
	return c.mon.Graph(), nil
}

// Attach connects the client to a surrogate over the given transport and
// enables adaptive offloading: memory pressure and low-memory trigger
// events now partition and offload automatically (ad-hoc platform
// creation, paper §2). A client may attach several surrogates; the
// partitioner then spreads offloaded classes across them by available
// memory ("multiple surrogates could be used by the client", §2).
func (c *Client) Attach(t remote.Transport) error {
	return c.AttachContext(context.Background(), t)
}

// AttachContext is Attach bounded by ctx. It runs the session handshake:
// the surrogate's admission control either opens the session or rejects
// it with a typed error — errors.Is(err, ErrAdmissionRejected) when the
// surrogate is at capacity, ErrShed when it is degraded and shedding
// load. Surrogates predating the handshake admit implicitly; the client
// attaches to them exactly as before.
func (c *Client) AttachContext(ctx context.Context, t remote.Transport) error {
	ro := c.opts.remoteOptions()
	ro.OnDown = c.onPeerDown
	p := remote.NewPeer(c.vm, t, ro)
	c.installHandoffHandler(p)
	c.mu.Lock()
	c.peers = append(c.peers, p)
	c.mu.Unlock()
	if _, err := p.Attach(ctx); err != nil && !errors.Is(err, remote.ErrAttachUnsupported) {
		// Rejected (or the transport died mid-handshake): free the slot.
		// The VM's peer table never reuses indexes, so nilling the
		// positional entry keeps every other peer's index aligned.
		idx := p.VMIndex()
		c.mu.Lock()
		if idx >= 0 && idx < len(c.peers) && c.peers[idx] == p {
			c.peers[idx] = nil
		}
		c.mu.Unlock()
		c.vm.DetachPeer(idx)
		if cerr := p.Close(); cerr != nil && c.opts.logf != nil {
			c.opts.logf("aide: close rejected attach: %v", cerr)
		}
		return fmt.Errorf("aide: attach: %w", err)
	}
	if c.opts.speculate {
		// Interpose the speculation wrapper between the VM and the wire:
		// while the connection is degraded, invocations race a local clone
		// against the remote call (see speculate.go).
		if err := c.vm.ReplacePeer(p.VMIndex(), newSpecPeer(c, p)); err != nil && c.opts.logf != nil {
			c.opts.logf("aide: install speculation wrapper: %v", err)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pm.attaches.Inc()
	if c.tracer.Enabled() {
		c.tracer.Emit(telemetry.Span{Kind: telemetry.SpanReattach, Peer: p.VMIndex()})
	}
	c.disc.Reset() // a fresh surrogate ends any post-disconnect cooldown
	if c.mon != nil && !c.adaptive {
		c.adaptive = true
		c.mon.OnGCListener(c.onGC)
		c.vm.SetPressureHandler(c.onPressure)
	}
	return nil
}

// Surrogates returns the number of connected surrogates.
func (c *Client) Surrogates() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, p := range c.peers {
		if p != nil {
			n++
		}
	}
	return n
}

// Disconnects reports how many surrogate connections the client has lost
// involuntarily (transport failure or timeout escalation).
func (c *Client) Disconnects() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.disconnects
}

// PinnedLocal reports whether the post-disconnection cooldown currently
// suppresses offloading.
func (c *Client) PinnedLocal() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.disc.Active()
}

// onPeerDown is the remote module's OnDown hook: it runs on the goroutine
// that observed the connection failure, so the actual teardown must not
// block on that goroutine (Close joins it) — handleDisconnect closes the
// peer asynchronously.
func (c *Client) onPeerDown(p *remote.Peer, cause error) {
	_ = cause // the peer already logged it via Logf
	c.discMu.Lock()
	defer c.discMu.Unlock()
	// Identity-guarded: after a live handoff the old connection's eventual
	// transport failure must not tear down the replacement peer now
	// occupying the same slot.
	c.disconnectLocked(p.VMIndex(), p)
}

// failoverPeer is the VM's disconnect-failover hook: a remote call failed
// because its hosting peer vanished. Re-home the peer's objects locally
// and tell the VM to retry the call against the reclaimed copies.
func (c *Client) failoverPeer(idx int) bool {
	c.discMu.Lock()
	defer c.discMu.Unlock()
	c.disconnectLocked(idx, nil)
	return true
}

// disconnectLocked tears down one surrogate connection and fails its
// objects over to local execution. Idempotent: the first caller does the
// work; later callers find the slot empty and return at once (discMu
// guarantees they return only after the reclaim completed). A non-nil
// expect restricts the teardown to that specific peer, so a failure
// report from a connection that already left the slot (handed off,
// reattached) is ignored. Requires discMu; takes c.mu itself.
func (c *Client) disconnectLocked(idx int, expect *remote.Peer) {
	c.mu.Lock()
	if idx < 0 || idx >= len(c.peers) || c.peers[idx] == nil ||
		(expect != nil && c.peers[idx] != expect) {
		c.mu.Unlock()
		return
	}
	p := c.peers[idx]
	c.peers[idx] = nil
	for cls, i := range c.offloaded {
		if i == idx {
			delete(c.offloaded, cls)
		}
	}
	c.disconnects++
	c.pm.disconnects.Inc()
	c.disc.Fire()
	logf := c.opts.logf
	c.bg.Add(1)
	c.mu.Unlock()

	// Detach before reclaiming so the export-pin check inside
	// ReclaimStubs sees the slot empty, then re-home every stub that
	// pointed at the lost surrogate.
	c.vm.DetachPeer(idx)
	n := c.vm.ReclaimStubs(idx)
	if logf != nil {
		logf("aide: surrogate %d disconnected; reclaimed %d stubs, pinned local", idx, n)
	}
	// Close asynchronously: this may run on the peer's own receive loop
	// (via OnDown), which Close joins. Detach joins the closer via c.bg.
	go func() {
		defer c.bg.Done()
		if err := p.Close(); err != nil && logf != nil {
			logf("aide: close disconnected surrogate %d: %v", idx, err)
		}
	}()
}

// AttachTCP dials a surrogate's listener and attaches to it.
func (c *Client) AttachTCP(addr string) error {
	return c.AttachTCPContext(context.Background(), addr)
}

// AttachTCPContext is AttachTCP with a cancellable dial: a client
// reattaching after a disconnection can abandon a slow candidate.
func (c *Client) AttachTCPContext(ctx context.Context, addr string) error {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return fmt.Errorf("aide: dial surrogate: %w", err)
	}
	return c.AttachContext(ctx, remote.NewConnTransport(conn))
}

// Detach tears the platform down: every surrogate connection closes and
// adaptive offloading stops. Objects already offloaded become unreachable;
// detach only when the application is done with them.
func (c *Client) Detach() error {
	c.mu.Lock()
	peers := c.peers
	c.peers = nil
	c.adaptive = false
	c.mu.Unlock()
	c.vm.SetPressureHandler(nil)
	var firstErr error
	for _, p := range peers {
		if p == nil {
			continue // lost earlier; already closed by disconnect handling
		}
		if err := p.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	// Join the disconnect handlers' async peer-close goroutines.
	c.bg.Wait()
	return firstErr
}

// Close releases the client's resources.
func (c *Client) Close() error { return c.Detach() }

// Ping round-trips a null message to every attached surrogate.
func (c *Client) Ping() error {
	return c.PingContext(context.Background())
}

// PingContext is Ping bounded by ctx: probes of the remaining
// surrogates abort when ctx is cancelled or its deadline expires.
func (c *Client) PingContext(ctx context.Context) error {
	c.mu.Lock()
	peers := append([]*remote.Peer(nil), c.peers...)
	c.mu.Unlock()
	live := 0
	for _, p := range peers {
		if p == nil {
			continue
		}
		if err := p.Probe(ctx); err != nil {
			return err
		}
		live++
	}
	if live == 0 {
		return ErrNoSurrogate
	}
	return nil
}

// onGC feeds collection reports into the memory trigger and drives
// periodic re-evaluation.
func (c *Client) onGC(free, capacity int64, freed bool) {
	c.mu.Lock()
	pinned := c.disc.Active()
	c.disc.Report() // each GC cycle ages the post-disconnect cooldown
	fire := c.adaptive && !pinned && c.trigger.Report(free, capacity, freed)
	c.gcCount++
	rebalance := c.adaptive && !pinned && !fire && c.opts.rebalanceGC > 0 &&
		len(c.offloaded) > 0 && c.gcCount%c.opts.rebalanceGC == 0
	c.mu.Unlock()
	if fire {
		// Best effort: a failed or non-beneficial partitioning leaves the
		// application running locally.
		if _, err := c.Offload(); err != nil {
			c.mu.Lock()
			c.rejected++
			c.mu.Unlock()
		}
		return
	}
	if rebalance {
		if rep, err := c.Rebalance(); err == nil && rep.Moved() {
			c.mu.Lock()
			c.rebalances++
			c.mu.Unlock()
		}
	}
}

// Rebalances reports how many periodic re-evaluations changed the
// placement.
func (c *Client) Rebalances() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rebalances
}

// partition runs the modified MINCUT heuristic over a graph snapshot,
// timing the run into the partition-runtime histogram when telemetry is
// attached. A fresh Scratch per call keeps concurrent pipeline runs (GC
// trigger vs. pressure handler) independent.
func (c *Client) partition(g *graph.Graph) ([]mincut.Candidate, error) {
	c.pm.partitions.Inc()
	sc := &mincut.Scratch{}
	if c.pm.partitionRuntime != nil {
		sc.Clock = time.Now
		sc.Runtime = c.pm.partitionRuntime
	}
	return sc.Candidates(sc.FromGraph(g, graph.BytesWeight))
}

// memoryPolicy builds the configured memory policy with decision-outcome
// counters attached.
func (c *Client) memoryPolicy() policy.MemoryPolicy {
	return policy.MemoryPolicy{
		MinFreeFraction: c.opts.params.MinFreeFraction,
		Chosen:          c.pm.chosen,
		Rejected:        c.pm.rejected,
	}
}

// onPressure handles a failed post-GC allocation: offload or die.
func (c *Client) onPressure(needed int64) bool {
	_, err := c.Offload()
	return err == nil
}

// Offload runs the partitioning pipeline once: snapshot the execution
// graph, generate candidate partitionings with the modified MINCUT
// heuristic, apply the memory policy, and migrate the chosen classes'
// objects. With several surrogates attached, classes are spread across
// them greedily by available memory (paper §2: "If the necessary resources
// for a client are not available at the closest surrogate, multiple
// surrogates could be used").
func (c *Client) Offload() (*OffloadReport, error) {
	return c.OffloadContext(context.Background())
}

// OffloadContext is Offload bounded by ctx: the placement probes and
// migration calls abort when ctx is cancelled or its deadline expires.
func (c *Client) OffloadContext(ctx context.Context) (*OffloadReport, error) {
	c.mu.Lock()
	pinned := c.disc.Active()
	peers := append([]*remote.Peer(nil), c.peers...)
	c.mu.Unlock()
	if pinned {
		return nil, ErrPinnedLocal
	}
	if countLive(peers) == 0 {
		return nil, ErrNoSurrogate
	}
	if c.mon == nil {
		return nil, errors.New("aide: monitoring disabled; nothing to partition")
	}

	traced := c.tracer.Enabled()
	var tStart time.Time
	if traced {
		tStart = time.Now()
	}
	g := c.mon.Graph()
	cands, err := c.partition(g)
	if err != nil {
		return nil, fmt.Errorf("aide: partition: %w", err)
	}
	mp := c.memoryPolicy()
	dec, err := mp.Choose(g, c.opts.heap, cands)
	if err != nil {
		// Hard fallback: when the heap is critically full, free whatever
		// we can rather than fail the application.
		heap := c.vm.Heap()
		if float64(heap.Free)/float64(heap.Capacity) < 0.05 {
			mp.MinFreeFraction = 0
			dec, err = mp.Choose(g, c.opts.heap, cands)
		}
		if err != nil {
			return nil, err
		}
	}

	chosen := make([]classInfo, 0, dec.OffloadClasses)
	for _, n := range g.Nodes() {
		if !dec.InClient[n.ID] {
			chosen = append(chosen, classInfo{name: n.Name, size: n.Memory})
		}
	}
	sort.Slice(chosen, func(i, j int) bool {
		if chosen[i].size != chosen[j].size {
			return chosen[i].size > chosen[j].size // biggest first
		}
		return chosen[i].name < chosen[j].name
	})

	placement, err := c.placeAcross(ctx, peers, chosen)
	if err != nil {
		return nil, err
	}

	rep := OffloadReport{
		CutBytes: dec.CutBytes,
		At:       c.vm.Clock(),
	}
	moved := make(map[string]int)
	for idx, classes := range placement {
		if len(classes) == 0 {
			continue
		}
		objects, bytes, err := c.offloadTo(ctx, idx, peers[idx], classes)
		if err != nil {
			return nil, fmt.Errorf("aide: offload to surrogate %d: %w", idx, err)
		}
		rep.Objects += objects
		rep.Bytes += bytes
		rep.Classes = append(rep.Classes, classes...)
		for _, cls := range classes {
			moved[cls] = idx
		}
	}
	sort.Strings(rep.Classes)
	c.vm.Collect() // reclaim the space the migrated objects occupied
	rep.FreedFraction = float64(rep.Bytes) / float64(c.opts.heap)
	rep.At = c.vm.Clock()

	c.mu.Lock()
	c.trigger.Reset()
	c.reports = append(c.reports, rep)
	for cls, idx := range moved {
		c.offloaded[cls] = idx
	}
	c.mu.Unlock()
	c.pm.offloads.Inc()
	c.pm.offloadedBytes.Add(rep.Bytes)
	if traced {
		c.tracer.Emit(telemetry.Span{
			Kind:  telemetry.SpanRepartition,
			Note:  "offload",
			N:     int64(rep.Objects),
			Bytes: rep.Bytes,
			Start: tStart,
			Dur:   time.Since(tStart),
		})
	}
	return &rep, nil
}

// maxOffloadRedirects bounds the drain redirects one offload follows, as
// the VM bounds an invocation's.
const maxOffloadRedirects = 3

// offloadTo migrates classes to the surrogate in slot idx. A draining
// surrogate refuses the migrate before executing it and the objects are
// still local, so, like an invocation, the offload waits for the handoff
// and retries on the session's new home.
func (c *Client) offloadTo(ctx context.Context, idx int, p *remote.Peer, classes []string) (int, int64, error) {
	for drains := 0; ; drains++ {
		objects, bytes, err := p.OffloadContext(ctx, classes)
		if err == nil || drains == maxOffloadRedirects || !errors.Is(err, vm.ErrSessionDrained) || !c.waitHandoff(idx, p) {
			return objects, bytes, err
		}
		c.mu.Lock()
		next := c.peers[idx]
		c.mu.Unlock()
		if next == nil {
			return objects, bytes, err
		}
		p = next
	}
}

// placeAcross assigns classes (largest first) to surrogates, greedily
// filling the one with the most remaining free memory. With a single
// surrogate everything goes to it without probing.
// classInfo pairs a class with its live memory for placement decisions.
type classInfo struct {
	name string
	size int64
}

func (c *Client) placeAcross(ctx context.Context, peers []*remote.Peer, chosen []classInfo) (map[int][]string, error) {
	live := make([]int, 0, len(peers))
	for i, p := range peers {
		if p != nil {
			live = append(live, i)
		}
	}
	if len(live) == 0 {
		return nil, ErrNoSurrogate
	}
	placement := make(map[int][]string, len(live))
	if len(live) == 1 {
		for _, ci := range chosen {
			placement[live[0]] = append(placement[live[0]], ci.name)
		}
		return placement, nil
	}
	free := make(map[int]int64, len(live))
	for _, i := range live {
		info, err := peers[i].InfoContext(ctx)
		if err != nil {
			return nil, fmt.Errorf("aide: probe surrogate %d: %w", i, err)
		}
		free[i] = info.FreeBytes
	}
	for _, ci := range chosen {
		best := live[0]
		for _, i := range live {
			if free[i] > free[best] {
				best = i
			}
		}
		placement[best] = append(placement[best], ci.name)
		free[best] -= ci.size
	}
	return placement, nil
}

// countLive counts the non-nil (still connected) entries of a peer
// snapshot.
func countLive(peers []*remote.Peer) int {
	n := 0
	for _, p := range peers {
		if p != nil {
			n++
		}
	}
	return n
}

// OffloadedClasses returns the classes currently placed on the surrogate,
// sorted.
func (c *Client) OffloadedClasses() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.offloaded))
	for cls := range c.offloaded {
		out = append(out, cls)
	}
	sort.Strings(out)
	return out
}

// Offloads returns the reports of every offload performed so far and the
// number of rejected (non-beneficial) attempts.
func (c *Client) Offloads() ([]OffloadReport, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]OffloadReport(nil), c.reports...), c.rejected
}

// Recall migrates the surrogate's live objects of the named classes back
// to the client: the reverse of Offload (the paper's §8 "global placement"
// direction). References held on either side stay valid.
func (c *Client) Recall(classes []string) (objects int, bytes int64, err error) {
	return c.RecallContext(context.Background(), classes)
}

// RecallContext is Recall bounded by ctx: the per-surrogate migration
// calls abort when ctx is cancelled or its deadline expires.
func (c *Client) RecallContext(ctx context.Context, classes []string) (objects int, bytes int64, err error) {
	c.mu.Lock()
	peers := append([]*remote.Peer(nil), c.peers...)
	byPeer := make(map[int][]string)
	for _, cls := range classes {
		idx, ok := c.offloaded[cls]
		if !ok {
			idx = 0 // not tracked: ask the first surrogate (harmless no-op)
		}
		byPeer[idx] = append(byPeer[idx], cls)
	}
	c.mu.Unlock()
	if countLive(peers) == 0 {
		return 0, 0, ErrNoSurrogate
	}
	for idx, group := range byPeer {
		if idx >= len(peers) || peers[idx] == nil {
			continue
		}
		n, b, rerr := peers[idx].RecallContext(ctx, group)
		if rerr != nil {
			return objects, bytes, rerr
		}
		objects += n
		bytes += b
		c.mu.Lock()
		for _, cls := range group {
			delete(c.offloaded, cls)
		}
		c.mu.Unlock()
	}
	return objects, bytes, nil
}

// RebalanceReport summarizes one global-placement pass.
type RebalanceReport struct {
	// Offloaded and Recalled list the classes that moved in each
	// direction.
	Offloaded []string
	Recalled  []string

	// BytesOut and BytesIn count payload moved each way.
	BytesOut, BytesIn int64
}

// Moved reports whether the pass changed anything.
func (r *RebalanceReport) Moved() bool { return len(r.Offloaded)+len(r.Recalled) > 0 }

// Rebalance re-evaluates the placement of every class against the current
// execution graph and moves objects in *both* directions to realize it —
// the paper's §8 "global placement strategies ... moving objects from the
// surrogate to the client device". If no partitioning is beneficial any
// more, everything comes home.
func (c *Client) Rebalance() (*RebalanceReport, error) {
	return c.RebalanceContext(context.Background())
}

// RebalanceContext is Rebalance bounded by ctx: both migration
// directions abort when ctx is cancelled or its deadline expires.
func (c *Client) RebalanceContext(ctx context.Context) (*RebalanceReport, error) {
	c.mu.Lock()
	nPeers := countLive(c.peers)
	current := make(map[string]bool, len(c.offloaded))
	for cls := range c.offloaded {
		current[cls] = true
	}
	c.mu.Unlock()
	if nPeers == 0 {
		return nil, ErrNoSurrogate
	}
	if c.mon == nil {
		return nil, errors.New("aide: monitoring disabled; nothing to partition")
	}

	traced := c.tracer.Enabled()
	var tStart time.Time
	if traced {
		tStart = time.Now()
	}
	c.pm.rebalances.Inc()

	// Desired placement from a fresh snapshot. Memory annotations for
	// offloaded classes live on the surrogate, so weigh the decision by
	// the recorded (historical) graph, which still carries their totals.
	g := c.mon.Graph()
	desired := make(map[string]bool)
	cands, err := c.partition(g)
	if err == nil {
		mp := c.memoryPolicy()
		if dec, derr := mp.Choose(g, c.opts.heap, cands); derr == nil {
			for _, n := range g.Nodes() {
				if !dec.InClient[n.ID] {
					desired[n.Name] = true
				}
			}
		}
		// ErrNotBeneficial leaves desired empty: recall everything.
	} else {
		return nil, fmt.Errorf("aide: rebalance: %w", err)
	}

	rep := &RebalanceReport{}
	for cls := range desired {
		if !current[cls] {
			rep.Offloaded = append(rep.Offloaded, cls)
		}
	}
	for cls := range current {
		if !desired[cls] {
			rep.Recalled = append(rep.Recalled, cls)
		}
	}
	sort.Strings(rep.Offloaded)
	sort.Strings(rep.Recalled)

	if len(rep.Recalled) > 0 {
		_, bytes, err := c.RecallContext(ctx, rep.Recalled)
		if err != nil {
			return nil, fmt.Errorf("aide: rebalance recall: %w", err)
		}
		rep.BytesIn = bytes
	}
	if len(rep.Offloaded) > 0 {
		c.mu.Lock()
		peers := append([]*remote.Peer(nil), c.peers...)
		c.mu.Unlock()
		chosen := make([]classInfo, 0, len(rep.Offloaded))
		for _, cls := range rep.Offloaded {
			var size int64
			if n, ok := g.Lookup(cls); ok {
				size = n.Memory
			}
			chosen = append(chosen, classInfo{name: cls, size: size})
		}
		placement, err := c.placeAcross(ctx, peers, chosen)
		if err != nil {
			return nil, fmt.Errorf("aide: rebalance: %w", err)
		}
		for idx, group := range placement {
			if len(group) == 0 {
				continue
			}
			_, bytes, err := peers[idx].OffloadContext(ctx, group)
			if err != nil {
				return nil, fmt.Errorf("aide: rebalance offload: %w", err)
			}
			rep.BytesOut += bytes
			c.mu.Lock()
			for _, cls := range group {
				c.offloaded[cls] = idx
			}
			c.mu.Unlock()
		}
		c.vm.Collect()
	}
	if traced {
		c.tracer.Emit(telemetry.Span{
			Kind:  telemetry.SpanRepartition,
			Note:  "rebalance",
			N:     int64(len(rep.Offloaded) + len(rep.Recalled)),
			Bytes: rep.BytesOut + rep.BytesIn,
			Start: tStart,
			Dur:   time.Since(tStart),
		})
	}
	return rep, nil
}

// SurrogateInfo probes the first attached surrogate's resources and
// round-trip latency.
func (c *Client) SurrogateInfo() (remote.PeerInfo, error) {
	infos, err := c.SurrogateInfos()
	if err != nil {
		return remote.PeerInfo{}, err
	}
	return infos[0], nil
}

// SurrogateInfos probes every attached surrogate.
func (c *Client) SurrogateInfos() ([]remote.PeerInfo, error) {
	return c.SurrogateInfosContext(context.Background())
}

// SurrogateInfosContext is SurrogateInfos bounded by ctx: the resource
// probes abort when ctx is cancelled or its deadline expires.
func (c *Client) SurrogateInfosContext(ctx context.Context) ([]remote.PeerInfo, error) {
	c.mu.Lock()
	peers := append([]*remote.Peer(nil), c.peers...)
	c.mu.Unlock()
	if countLive(peers) == 0 {
		return nil, ErrNoSurrogate
	}
	infos := make([]remote.PeerInfo, 0, len(peers))
	for i, p := range peers {
		if p == nil {
			continue
		}
		info, err := p.InfoContext(ctx)
		if err != nil {
			return nil, fmt.Errorf("aide: surrogate %d: %w", i, err)
		}
		infos = append(infos, info)
	}
	return infos, nil
}
