package aide

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"aide/internal/remote"
	"aide/internal/vm"
)

// rawTenant is one tenant session driven below the Client layer: a bare
// client VM and peer, so typed wire errors reach the test unfiltered by
// the Client's disconnect failover.
type rawTenant struct {
	vm   *vm.VM
	peer *remote.Peer
	th   *vm.Thread
	doc  vm.ObjectID
}

// attachTenant connects a fresh raw tenant to the surrogate over an
// in-memory transport. The tenant is in the lobby until its first work
// request (or explicit Attach) runs admission.
func attachTenant(t *testing.T, s *Surrogate, reg *Registry) *rawTenant {
	t.Helper()
	cv := vm.New(reg, vm.Config{Role: vm.RoleClient, HeapCapacity: 4 << 20})
	ct, st := remote.NewChannelPair()
	s.Serve(st)
	p := remote.NewPeer(cv, ct, remote.Options{Workers: 2, CallTimeout: 5 * time.Second})
	t.Cleanup(func() { _ = p.Close() })
	return &rawTenant{vm: cv, peer: p, th: cv.NewThread()}
}

// offloadDoc gives the tenant one offloaded Doc object of the given heap
// size, rooted so it survives client collections.
func (rt *rawTenant) offloadDoc(t *testing.T, size int64) {
	t.Helper()
	id, err := rt.th.New("Doc", size)
	if err != nil {
		t.Fatalf("new Doc: %v", err)
	}
	rt.vm.SetRoot("doc", id)
	rt.doc = id
	if _, _, err := rt.peer.Offload([]string{"Doc"}); err != nil {
		t.Fatalf("offload: %v", err)
	}
}

// appendN runs n cumulative appends and asserts the exactly-once
// sequence: the k-th append must observe k*delta.
func (rt *rawTenant) appendN(t *testing.T, n int, delta int64) {
	t.Helper()
	for k := 1; k <= n; k++ {
		ret, err := rt.th.Invoke(rt.doc, "append", Int(delta))
		if err != nil {
			t.Fatalf("append %d: %v", k, err)
		}
		if ret.I != int64(k)*delta {
			t.Fatalf("append %d returned %d, want %d: another tenant's state bled in", k, ret.I, int64(k)*delta)
		}
	}
}

func waitSessions(t *testing.T, s *Surrogate, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.Sessions() != want && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if got := s.Sessions(); got != want {
		t.Fatalf("sessions = %d, want %d", got, want)
	}
}

// TestSessionLifecycle is the table-driven attach/admit/detach/reap walk:
// tenants attach into the lobby (not yet admitted), admission happens on
// the first work request or explicit handshake, and closing a tenant's
// connection reaps its session and releases its capacity.
func TestSessionLifecycle(t *testing.T) {
	cases := []struct {
		name    string
		tenants int
		// explicitAttach admits via the MsgAttach handshake instead of
		// the first work request.
		explicitAttach bool
		// closeFirst reaps this many tenants before the final count.
		closeFirst int
	}{
		{name: "single_lazy_admit", tenants: 1},
		{name: "single_handshake", tenants: 1, explicitAttach: true},
		{name: "many_lazy_admit", tenants: 4, closeFirst: 2},
		{name: "many_handshake", tenants: 8, explicitAttach: true, closeFirst: 3},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			reg := demoRegistry(t)
			s := NewSurrogate(reg, WithHeap(32<<20))
			defer func() {
				if err := s.Close(); err != nil {
					t.Errorf("close: %v", err)
				}
			}()

			tenants := make([]*rawTenant, tc.tenants)
			for i := range tenants {
				tenants[i] = attachTenant(t, s, reg)
			}
			// Lobby: connected but nothing admitted, and bookkeeping
			// requests (ping, info) must flow regardless.
			if got := s.Sessions(); got != 0 {
				t.Fatalf("sessions before any work = %d, want 0", got)
			}
			for _, rt := range tenants {
				if err := rt.peer.Ping(); err != nil {
					t.Fatalf("lobby ping: %v", err)
				}
			}
			if got := s.Sessions(); got != 0 {
				t.Fatalf("bookkeeping traffic admitted a session: %d", got)
			}

			for i, rt := range tenants {
				if tc.explicitAttach {
					info, err := rt.peer.Attach(context.Background())
					if err != nil {
						t.Fatalf("attach: %v", err)
					}
					if info.Sessions != int64(i+1) {
						t.Fatalf("attach reply sessions = %d, want %d", info.Sessions, i+1)
					}
				} else {
					rt.offloadDoc(t, 4096)
				}
			}
			waitSessions(t, s, tc.tenants)
			if st := s.Stats(); st.Admitted != int64(tc.tenants) || st.Active != tc.tenants {
				t.Fatalf("stats = %+v, want %d admitted/active", st, tc.tenants)
			}

			for i := 0; i < tc.closeFirst; i++ {
				if err := tenants[i].peer.Close(); err != nil {
					t.Fatalf("close tenant %d: %v", i, err)
				}
			}
			// Reaping is asynchronous: the surrogate notices the dropped
			// transport and releases the session's slot.
			waitSessions(t, s, tc.tenants-tc.closeFirst)
			// Survivors still work after their neighbors were reaped.
			for _, rt := range tenants[tc.closeFirst:] {
				if err := rt.peer.Ping(); err != nil {
					t.Fatalf("survivor ping after reap: %v", err)
				}
			}
		})
	}
}

// TestSessionAdmissionRejection is the table-driven rejection matrix:
// each refusal path must produce its typed sentinel on the wire, the
// decision must be sticky, and bookkeeping traffic must keep flowing so
// the fleet can still probe a full surrogate.
func TestSessionAdmissionRejection(t *testing.T) {
	cases := []struct {
		name string
		opts []Option
		// seed sessions admitted before the probe tenant arrives.
		seed int
		want error
	}{
		{
			name: "session_cap",
			opts: []Option{WithMaxSessions(2)},
			seed: 2,
			want: ErrAdmissionRejected,
		},
		{
			name: "heap_quota",
			opts: []Option{WithHeap(4 << 20), WithSessionQuota(2 << 20)},
			seed: 2, // 2 x 2MiB commits the whole 4MiB budget
			want: ErrAdmissionRejected,
		},
		{
			name: "degraded_sheds",
			opts: []Option{WithHealthCheck(func() error { return errors.New("overheating") })},
			seed: 0,
			want: ErrShed,
		},
		{
			name: "degraded_sheds_before_cap",
			opts: []Option{
				WithMaxSessions(1),
				WithHealthCheck(func() error { return errors.New("overheating") }),
			},
			seed: 0, // even a full-and-degraded surrogate reports shed, not the cap
			want: ErrShed,
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			reg := demoRegistry(t)
			s := NewSurrogate(reg, append([]Option{WithHeap(32 << 20)}, tc.opts...)...)
			defer func() {
				if err := s.Close(); err != nil {
					t.Errorf("close: %v", err)
				}
			}()
			for i := 0; i < tc.seed; i++ {
				seed := attachTenant(t, s, reg)
				if _, err := seed.peer.Attach(context.Background()); err != nil {
					t.Fatalf("seed attach %d: %v", i, err)
				}
			}

			probe := attachTenant(t, s, reg)
			_, err := probe.peer.Attach(context.Background())
			if !errors.Is(err, tc.want) {
				t.Fatalf("attach error = %v, want %v", err, tc.want)
			}
			var re *remote.RemoteError
			if !errors.As(err, &re) || re.Code == remote.CodeNone {
				t.Fatalf("rejection carried no wire error code: %v", err)
			}

			// Sticky: a later work request gets the same typed answer, not
			// a second admission run.
			if _, err := probe.th.New("Doc", 256); err != nil {
				t.Fatalf("local new: %v", err)
			}
			if _, _, err := probe.peer.Offload([]string{"Doc"}); !errors.Is(err, tc.want) {
				t.Fatalf("post-rejection offload error = %v, want %v", err, tc.want)
			}
			// Bookkeeping still flows: probes must rank a full surrogate.
			if err := probe.peer.Ping(); err != nil {
				t.Fatalf("rejected tenant ping: %v", err)
			}
			if _, err := probe.peer.Info(); err != nil {
				t.Fatalf("rejected tenant info: %v", err)
			}
			if got := s.Sessions(); got != tc.seed {
				t.Fatalf("sessions after rejection = %d, want %d", got, tc.seed)
			}
			wantStats := SurrogateStats{Active: tc.seed, Admitted: int64(tc.seed)}
			if tc.want == ErrShed {
				wantStats.Shed = 1
			} else {
				wantStats.Rejected = 1
			}
			if st := s.Stats(); st != wantStats {
				t.Fatalf("stats = %+v, want %+v", st, wantStats)
			}
		})
	}
}

// TestSessionRejectionClientVisible proves the acceptance criterion that
// admission rejections are typed all the way up: the public Client sees
// errors.Is(err, aide.ErrAdmissionRejected) from Attach, not a generic
// transport failure.
func TestSessionRejectionClientVisible(t *testing.T) {
	reg := demoRegistry(t)
	s := NewSurrogate(reg, WithMaxSessions(1))
	defer func() {
		if err := s.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	first := attachTenant(t, s, reg)
	if _, err := first.peer.Attach(context.Background()); err != nil {
		t.Fatalf("first attach: %v", err)
	}

	c := NewClient(reg, WithHeap(1<<20))
	defer c.Close()
	ct, st := remote.NewChannelPair()
	s.Serve(st)
	err := c.Attach(ct)
	if !errors.Is(err, ErrAdmissionRejected) {
		t.Fatalf("client attach error = %v, want ErrAdmissionRejected", err)
	}
	// The rejected client is fully usable locally afterwards.
	th := c.Thread()
	id, err := th.New("Doc", 1024)
	if err != nil {
		t.Fatalf("local new after rejection: %v", err)
	}
	if _, err := th.Invoke(id, "append", Int(5)); err != nil {
		t.Fatalf("local invoke after rejection: %v", err)
	}
}

// TestSessionQuotaReleasedOnReap verifies capacity accounting across the
// session lifecycle: a reaped tenant's quota returns to the budget, so
// the next tenant admits where it would have been rejected.
func TestSessionQuotaReleasedOnReap(t *testing.T) {
	reg := demoRegistry(t)
	s := NewSurrogate(reg, WithHeap(4<<20), WithSessionQuota(2<<20))
	defer func() {
		if err := s.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	a := attachTenant(t, s, reg)
	b := attachTenant(t, s, reg)
	for _, rt := range []*rawTenant{a, b} {
		if _, err := rt.peer.Attach(context.Background()); err != nil {
			t.Fatalf("attach: %v", err)
		}
	}
	full := attachTenant(t, s, reg)
	if _, err := full.peer.Attach(context.Background()); !errors.Is(err, ErrAdmissionRejected) {
		t.Fatalf("attach at quota = %v, want ErrAdmissionRejected", err)
	}

	if err := a.peer.Close(); err != nil {
		t.Fatalf("close tenant: %v", err)
	}
	waitSessions(t, s, 1)
	next := attachTenant(t, s, reg)
	if _, err := next.peer.Attach(context.Background()); err != nil {
		t.Fatalf("attach after reap freed quota: %v", err)
	}
}

// TestEvictionOrdering pins the deterministic eviction policy: most live
// bytes first, ties broken toward the newest session.
func TestEvictionOrdering(t *testing.T) {
	t.Run("heaviest_first", func(t *testing.T) {
		reg := demoRegistry(t)
		s := NewSurrogate(reg, WithHeap(64<<20))
		defer func() {
			if err := s.Close(); err != nil {
				t.Errorf("close: %v", err)
			}
		}()
		light := attachTenant(t, s, reg)
		heavy := attachTenant(t, s, reg)
		light.offloadDoc(t, 8<<10)
		heavy.offloadDoc(t, 4<<20)
		waitSessions(t, s, 2)

		if got := s.EvictSessions(1); got != 1 {
			t.Fatalf("evicted %d sessions, want 1", got)
		}
		waitForPeerDown(t, heavy.peer, "heavy tenant")
		if err := light.peer.Ping(); err != nil {
			t.Fatalf("light tenant was disturbed by the eviction: %v", err)
		}
		if st := s.Stats(); st.Evicted != 1 || st.Active != 1 {
			t.Fatalf("stats = %+v, want 1 evicted / 1 active", st)
		}
	})
	t.Run("ties_evict_newest", func(t *testing.T) {
		reg := demoRegistry(t)
		s := NewSurrogate(reg, WithHeap(64<<20))
		defer func() {
			if err := s.Close(); err != nil {
				t.Errorf("close: %v", err)
			}
		}()
		elder := attachTenant(t, s, reg)
		newer := attachTenant(t, s, reg)
		elder.offloadDoc(t, 64<<10)
		newer.offloadDoc(t, 64<<10)
		waitSessions(t, s, 2)

		if got := s.EvictSessions(1); got != 1 {
			t.Fatalf("evicted %d sessions, want 1", got)
		}
		waitForPeerDown(t, newer.peer, "newer tenant")
		if err := elder.peer.Ping(); err != nil {
			t.Fatalf("longest-standing tenant evicted on a tie: %v", err)
		}
	})
}

func waitForPeerDown(t *testing.T, p *remote.Peer, who string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if p.Ping() != nil {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("%s still reachable after eviction", who)
}

// TestCrossTenantHeapIsolation is the non-interference core: tenants
// hammer same-named state on one surrogate and each must read back
// exactly what it wrote, while the surrogate's aggregate heap accounts
// for every tenant against the shared budget.
func TestCrossTenantHeapIsolation(t *testing.T) {
	reg := demoRegistry(t)
	s := NewSurrogate(reg, WithHeap(64<<20))
	defer func() {
		if err := s.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()

	const tenants = 4
	rts := make([]*rawTenant, tenants)
	for i := range rts {
		rts[i] = attachTenant(t, s, reg)
		rts[i].offloadDoc(t, 32<<10)
	}
	// Interleave appends round-robin with per-tenant deltas: any heap or
	// stub bleed between session VMs breaks a sequence immediately.
	for round := 1; round <= 10; round++ {
		for i, rt := range rts {
			delta := int64(i+1) * 100
			ret, err := rt.th.Invoke(rt.doc, "append", Int(delta))
			if err != nil {
				t.Fatalf("tenant %d round %d: %v", i, round, err)
			}
			if want := int64(round) * delta; ret.I != want {
				t.Fatalf("tenant %d round %d read %d, want %d", i, round, ret.I, want)
			}
		}
	}
	for i, rt := range rts {
		got, err := rt.th.GetField(rt.doc, "len")
		if err != nil {
			t.Fatalf("tenant %d final read: %v", i, err)
		}
		if want := int64(i+1) * 100 * 10; got.I != want {
			t.Fatalf("tenant %d final = %d, want %d", i, got.I, want)
		}
	}

	// The aggregate heap sees every tenant's objects against the shared
	// budget, and per-tenant stats stay per-tenant: one tenant's objects
	// are not visible in another's session VM.
	h := s.Heap()
	if h.Capacity != 64<<20 {
		t.Fatalf("aggregate capacity = %d, want the surrogate budget", h.Capacity)
	}
	if h.Objects < tenants {
		t.Fatalf("aggregate objects = %d, want >= %d (one Doc per tenant)", h.Objects, tenants)
	}
}

// TestSurrogateHealthz pins the health surface the shedding decision and
// the /healthz endpoint share: nil while healthy, the probe's error while
// degraded, and a closed error after Close.
func TestSurrogateHealthz(t *testing.T) {
	reg := demoRegistry(t)
	sick := errors.New("thermal throttling")
	var degraded bool
	s := NewSurrogate(reg, WithHealthCheck(func() error {
		if degraded {
			return sick
		}
		return nil
	}))
	if err := s.Healthz(); err != nil {
		t.Fatalf("healthy Healthz = %v", err)
	}
	if s.Clock() != 0 {
		t.Fatalf("idle surrogate clock = %v, want 0", s.Clock())
	}
	degraded = true
	if err := s.Healthz(); !errors.Is(err, sick) {
		t.Fatalf("degraded Healthz = %v, want the probe error", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := s.Healthz(); err == nil {
		t.Fatal("closed surrogate reported healthy")
	}
}

// TestSurrogateCloseTearsDownSessions verifies Close against live
// tenants: every session ends, every goroutine joins (the package leak
// gate enforces the latter), and late Serve calls are refused cleanly.
func TestSurrogateCloseTearsDownSessions(t *testing.T) {
	reg := demoRegistry(t)
	s := NewSurrogate(reg, WithHeap(32<<20))
	tenants := make([]*rawTenant, 3)
	for i := range tenants {
		tenants[i] = attachTenant(t, s, reg)
		tenants[i].offloadDoc(t, 4096)
	}
	waitSessions(t, s, 3)
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if got := s.Sessions(); got != 0 {
		t.Fatalf("sessions after close = %d, want 0", got)
	}
	for i, rt := range tenants {
		waitForPeerDown(t, rt.peer, fmt.Sprintf("tenant %d after surrogate close", i))
	}
	// Serving a new transport after close must refuse, not leak.
	ct, st := remote.NewChannelPair()
	s.Serve(st)
	cv := vm.New(reg, vm.Config{Role: vm.RoleClient, HeapCapacity: 1 << 20})
	p := remote.NewPeer(cv, ct, remote.Options{Workers: 1, CallTimeout: time.Second})
	defer func() { _ = p.Close() }()
	if err := p.Ping(); err == nil {
		t.Fatal("ping succeeded against a closed surrogate")
	}
}

// hangUpAfterAttach is the surrogate's end of a tenant connection that
// sends one attach request and is lost as soon as the surrogate answers
// it: the session is always admitted first, then lost, and the loss
// races Serve's registration of the session.
type hangUpAfterAttach struct {
	sent     bool // touched only by the peer's single receive loop
	answered chan struct{}
	once     sync.Once
}

func newHangUpAfterAttach() *hangUpAfterAttach {
	return &hangUpAfterAttach{answered: make(chan struct{})}
}

func (t *hangUpAfterAttach) Send(m *remote.Message) error {
	if m.Kind == remote.MsgAttach && m.Reply {
		t.once.Do(func() { close(t.answered) })
	}
	return nil
}

func (t *hangUpAfterAttach) Recv() (*remote.Message, error) {
	if !t.sent {
		t.sent = true
		return &remote.Message{Kind: remote.MsgAttach, ID: 1}, nil
	}
	<-t.answered
	return nil, remote.ErrClosed
}

func (t *hangUpAfterAttach) Close() error {
	t.once.Do(func() { close(t.answered) })
	return nil
}

// TestSessionLostBeforeRegistrationRollsBack: a tenant that is admitted
// and loses its connection before Serve has registered the session must
// still have its admission and heap quota released, not leaked.
func TestSessionLostBeforeRegistrationRollsBack(t *testing.T) {
	reg := demoRegistry(t)
	s := NewSurrogate(reg, WithHeap(1<<30), WithSessionQuota(1<<20))
	defer func() {
		if err := s.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	const tenants = 200
	for i := 0; i < tenants; i++ {
		s.Serve(newHangUpAfterAttach())
	}
	// Reaps run asynchronously, so poll until the ledger settles.
	var admitted int
	var committed int64
	var registered int
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		s.mu.Lock()
		admitted, committed, registered = s.admitted, s.committed, len(s.sessions)
		s.mu.Unlock()
		if admitted == 0 && committed == 0 && registered == 0 || time.Now().After(deadline) {
			break
		}
	}
	if admitted != 0 || committed != 0 || registered != 0 {
		t.Fatalf("after every tenant hung up: %d sessions admitted, %d bytes of quota committed, %d registered; want all 0",
			admitted, committed, registered)
	}
	if got := s.Sessions(); got != 0 {
		t.Fatalf("Sessions() = %d, want 0", got)
	}
	if got := s.Stats().Admitted; got != tenants {
		t.Fatalf("%d sessions were ever admitted, want all %d", got, tenants)
	}
}
