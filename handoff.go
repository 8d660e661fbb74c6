package aide

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"aide/internal/remote"
	"aide/internal/telemetry"
	"aide/internal/vm"
)

// handoffWait parks the application threads whose calls bounced off a
// draining surrogate until the session's new home is wired in. done
// stays set after the channel closes so a straggler that reads the
// drained error late still retries immediately; installed records the
// peer the completed handoff wired in, so a bounce coming from that
// very peer is recognized as the start of the NEXT drain rather than a
// straggler of the last one. An aborted handoff closes the round with
// installed nil — the session resumed in place, so every bounce retries
// immediately against it. Guarded by c.mu.
type handoffWait struct {
	ch        chan struct{}
	done      bool
	installed vm.Peer
}

// waitHandoff is the VM's drain handler: a remote call on slot idx came
// back with the typed drained redirect, issued through peer used. Block
// until the concurrent handoff replaces the slot's peer (then retry the
// call against the new home), or give up after the handoff timeout (the
// call then surfaces ErrDrained to the application).
func (c *Client) waitHandoff(idx int, used vm.Peer) bool {
	c.mu.Lock()
	hw := c.handoffs[idx]
	switch {
	case hw == nil:
		hw = &handoffWait{ch: make(chan struct{})}
		c.handoffs[idx] = hw
	case hw.done && (used == nil || used != hw.installed):
		// Straggler of the completed handoff: the bounce came from the
		// replaced peer and the slot already points at the new home.
		aborted := hw.installed == nil
		c.mu.Unlock()
		if aborted {
			// The round aborted and the session resumed in place. The
			// surrogate clears its draining gate only when our error
			// reply lands, which can lag this wake-up by a round trip; a
			// short pause keeps the caller's bounded redirect retries
			// from burning out against the still-closing gate.
			time.Sleep(2 * time.Millisecond)
		}
		return true
	case hw.done:
		// The bounce came from the peer the last handoff installed: that
		// home is draining now. Open a fresh round and park on it.
		hw = &handoffWait{ch: make(chan struct{})}
		c.handoffs[idx] = hw
	}
	timeout := c.opts.handoffTimeout
	c.mu.Unlock()
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-hw.ch:
		return true
	case <-timer.C:
		return false
	}
}

// installHandoffHandler subscribes a surrogate connection to live
// handoffs: when the surrogate drains, it pushes the session snapshot
// here with the destination's address.
func (c *Client) installHandoffHandler(p *remote.Peer) {
	p.SetSnapshotHandler(func(method, dest string, img []byte) error {
		if method != remote.SnapHandoff {
			return fmt.Errorf("aide: client cannot consume snapshot push %q", method)
		}
		return c.handleHandoff(p, dest, img)
	})
}

// dial resolves a destination surrogate address to a transport, through
// the WithDialer override when one is installed.
func (c *Client) dial(ctx context.Context, addr string) (remote.Transport, error) {
	if c.opts.dialer != nil {
		return c.opts.dialer(ctx, addr)
	}
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	return remote.NewConnTransport(conn), nil
}

// handleHandoff re-homes one session: the draining surrogate shipped its
// snapshot of our session with the destination's address. Dial the
// destination, open a replacement connection that inherits the old
// slot's index (so every stub and import table stays valid), restore the
// image there, and atomically swap the slot. Returning nil acknowledges
// the handoff — the old surrogate then retires the session; any error
// makes it resume in place instead.
func (c *Client) handleHandoff(old *remote.Peer, dest string, img []byte) error {
	idx := old.VMIndex()
	traced := c.tracer.Enabled()
	var tStart time.Time
	if traced {
		tStart = time.Now()
	}

	// Publish (or adopt) the wait entry before any slow work so threads
	// bounced by the draining gate park instead of erroring.
	c.mu.Lock()
	hw := c.handoffs[idx]
	if hw == nil || hw.done {
		hw = &handoffWait{ch: make(chan struct{})}
		c.handoffs[idx] = hw
	}
	c.mu.Unlock()

	// fail abandons the handoff: the surrogate sees our error, clears
	// draining, and the session resumes in place — so wake every parked
	// waiter now (done with no installed peer: any later bounce is
	// treated as a retriable straggler) instead of leaving them to sit
	// out the full handoff timeout and surface ErrDrained for a session
	// that is serving again.
	fail := func(err error) error {
		c.mu.Lock()
		if c.handoffs[idx] == hw && !hw.done {
			hw.done = true
			hw.installed = nil
			close(hw.ch)
		}
		c.mu.Unlock()
		return err
	}

	// Scope the re-homing to the old connection's lifetime: if it dies
	// mid-handoff the disconnect path owns the slot.
	ctx := old.LifeContext()
	t, err := c.dial(ctx, dest)
	if err != nil {
		return fail(fmt.Errorf("aide: handoff dial %s: %w", dest, err))
	}
	ro := c.opts.remoteOptions()
	ro.OnDown = c.onPeerDown
	ro.Takeover = &idx
	np := remote.NewPeer(c.vm, t, ro)
	c.installHandoffHandler(np)
	abort := func(err error) error {
		if cerr := np.Close(); cerr != nil && c.opts.logf != nil {
			c.opts.logf("aide: close aborted handoff peer: %v", cerr)
		}
		return fail(err)
	}
	if _, err := np.Attach(ctx); err != nil && !errors.Is(err, remote.ErrAttachUnsupported) {
		return abort(fmt.Errorf("aide: handoff attach %s: %w", dest, err))
	}
	if err := np.PushSnapshot(ctx, remote.SnapRestore, "", img); err != nil {
		return abort(fmt.Errorf("aide: handoff restore at %s: %w", dest, err))
	}

	// Swap under discMu so the exchange cannot interleave with a
	// disconnect teardown of the same slot.
	c.discMu.Lock()
	c.mu.Lock()
	if idx < 0 || idx >= len(c.peers) || c.peers[idx] != old {
		c.mu.Unlock()
		c.discMu.Unlock()
		return abort(errors.New("aide: handoff: peer slot lost mid-transfer"))
	}
	c.peers[idx] = np
	// Claim the async old-peer closer in the same critical section that
	// claims the slot, so it is serialized against Detach's bg.Wait.
	c.bg.Add(1)
	c.mu.Unlock()
	var vp vm.Peer = np
	if c.opts.speculate {
		vp = newSpecPeer(c, np)
	}
	if err := c.vm.ReplacePeer(idx, vp); err != nil {
		c.mu.Lock()
		c.peers[idx] = old
		c.bg.Done()
		c.mu.Unlock()
		c.discMu.Unlock()
		return abort(fmt.Errorf("aide: handoff swap: %w", err))
	}
	c.discMu.Unlock()

	c.mu.Lock()
	hw.done = true
	hw.installed = vp
	close(hw.ch)
	c.handoffsDone++
	logf := c.opts.logf
	c.mu.Unlock()
	c.pm.handoffs.Inc()
	if traced {
		c.tracer.Emit(telemetry.Span{
			Kind: telemetry.SpanDrain, Note: "client:" + dest, Peer: idx,
			Bytes: int64(len(img)), Start: tStart, Dur: time.Since(tStart),
		})
	}
	// Close the old connection asynchronously: this handler runs on one
	// of its own serve workers, which Close joins. Wait for that serve to
	// send its reply, the handoff ack: closing first makes the draining
	// surrogate see EOF, count the handoff as failed and resume the
	// session it already shipped. Then let the old peer's in-flight
	// replies land — a call answered before the drain quiesced may still
	// be on the wire, and closing under it would turn an executed call
	// into a spurious failure.
	go func() {
		defer c.bg.Done()
		old.WaitServeIdle(0)
		deadline := time.Now().Add(time.Second)
		for old.PendingCalls() > 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if err := old.Close(); err != nil && logf != nil {
			logf("aide: close handed-off surrogate %d: %v", idx, err)
		}
	}()
	return nil
}

// Handoffs reports how many live session handoffs this client has
// completed.
func (c *Client) Handoffs() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.handoffsDone
}
