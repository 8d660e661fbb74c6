package remote

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"aide/internal/vm"
)

// failureRegistry has one offloadable class and a method that blocks until
// released, for in-flight-failure tests.
func failureRegistry(block chan struct{}) *vm.Registry {
	reg := vm.NewRegistry()
	mustRegister(reg, vm.ClassSpec{
		Name:   "Box",
		Fields: []string{"v"},
		Methods: []vm.MethodSpec{
			{Name: "get", Body: func(th *vm.Thread, self vm.ObjectID, args []vm.Value) (vm.Value, error) {
				return th.GetField(self, "v")
			}},
			{Name: "wait", Body: func(th *vm.Thread, self vm.ObjectID, args []vm.Value) (vm.Value, error) {
				if block != nil {
					<-block
				}
				return vm.Nil(), nil
			}},
		},
	})
	return reg
}

func TestCallAfterCloseFails(t *testing.T) {
	reg := failureRegistry(nil)
	client := vm.New(reg, vm.Config{Role: vm.RoleClient})
	surrogate := vm.New(reg, vm.Config{Role: vm.RoleSurrogate})
	pc, ps := NewPair(client, surrogate, Options{Workers: 1})

	th := client.NewThread()
	id, err := th.New("Box", 32)
	if err != nil {
		t.Fatal(err)
	}
	client.SetRoot("box", id)
	if _, _, err := pc.Offload([]string{"Box"}); err != nil {
		t.Fatal(err)
	}
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}
	if err := pc.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := th.Invoke(id, "get"); err == nil {
		t.Fatal("invoke over a closed platform must fail")
	}
}

func TestInFlightCallFailsOnTransportDeath(t *testing.T) {
	block := make(chan struct{})
	reg := failureRegistry(block)
	client := vm.New(reg, vm.Config{Role: vm.RoleClient})
	surrogate := vm.New(reg, vm.Config{Role: vm.RoleSurrogate})
	ct, st := NewChannelPair()
	pc := NewPeer(client, ct, Options{Workers: 1})
	ps := NewPeer(surrogate, st, Options{Workers: 1})
	defer ps.Close()
	defer close(block)

	th := client.NewThread()
	id, err := th.New("Box", 32)
	if err != nil {
		t.Fatal(err)
	}
	client.SetRoot("box", id)
	if _, _, err := pc.Offload([]string{"Box"}); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		_, err := th.Invoke(id, "wait") // blocks on the surrogate
		done <- err
	}()
	time.Sleep(30 * time.Millisecond)
	if err := pc.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("in-flight call returned nil after connection death")
		}
	case <-time.After(3 * time.Second):
		t.Fatal("in-flight call never unblocked")
	}
}

func TestPeerErrorsSurfaceAsRemoteError(t *testing.T) {
	reg := failureRegistry(nil)
	client := vm.New(reg, vm.Config{Role: vm.RoleClient})
	surrogate := vm.New(reg, vm.Config{Role: vm.RoleSurrogate})
	pc, ps := NewPair(client, surrogate, Options{Workers: 1})
	defer pc.Close()
	defer ps.Close()

	// Ask the surrogate to invoke an object it does not host.
	_, _, err := pc.InvokeRemote(vm.ObjectID(4242), "get", nil)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want *RemoteError", err)
	}
	if !strings.Contains(re.Error(), "no such object") {
		t.Fatalf("remote error text: %v", re)
	}
}

func TestOffloadNothingIsNoop(t *testing.T) {
	reg := failureRegistry(nil)
	client := vm.New(reg, vm.Config{Role: vm.RoleClient})
	surrogate := vm.New(reg, vm.Config{Role: vm.RoleSurrogate})
	pc, ps := NewPair(client, surrogate, Options{Workers: 1})
	defer pc.Close()
	defer ps.Close()
	n, bytes, err := pc.Offload([]string{"Box"}) // no live objects
	if err != nil || n != 0 || bytes != 0 {
		t.Fatalf("empty offload: %d %d %v", n, bytes, err)
	}
}

func TestStatsAccounting(t *testing.T) {
	reg := failureRegistry(nil)
	client := vm.New(reg, vm.Config{Role: vm.RoleClient})
	surrogate := vm.New(reg, vm.Config{Role: vm.RoleSurrogate})
	pc, ps := NewPair(client, surrogate, Options{Workers: 1})
	defer pc.Close()
	defer ps.Close()

	th := client.NewThread()
	id, err := th.New("Box", 128)
	if err != nil {
		t.Fatal(err)
	}
	client.SetRoot("box", id)
	if _, _, err := pc.Offload([]string{"Box"}); err != nil {
		t.Fatal(err)
	}
	if _, err := th.Invoke(id, "get"); err != nil {
		t.Fatal(err)
	}
	cs := pc.Stats()
	if cs.RequestsSent < 2 || cs.ObjectsMigrated != 1 || cs.MigrationBytes == 0 || cs.BytesSent == 0 {
		t.Fatalf("client stats: %+v", cs)
	}
	ss := ps.Stats()
	if ss.RequestsServed < 2 {
		t.Fatalf("surrogate stats: %+v", ss)
	}
}

func TestDoubleCloseAndPingAfterClose(t *testing.T) {
	reg := failureRegistry(nil)
	client := vm.New(reg, vm.Config{Role: vm.RoleClient})
	surrogate := vm.New(reg, vm.Config{Role: vm.RoleSurrogate})
	pc, ps := NewPair(client, surrogate, Options{Workers: 1})
	if err := pc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := pc.Close(); err != nil {
		t.Fatal("double close must be fine")
	}
	if err := pc.Ping(); err == nil {
		t.Fatal("ping after close must fail")
	}
	_ = ps.Close()
}

// TestOrphanReplyLogsOncePerPeer pins the orphan-reply diagnostics: every
// orphan is counted, but the log line fires once per peer — not once per
// pending-table shard — no matter which shards the orphan IDs land in.
func TestOrphanReplyLogsOncePerPeer(t *testing.T) {
	reg := failureRegistry(nil)
	client := vm.New(reg, vm.Config{Role: vm.RoleClient})
	ct, st := NewChannelPair()
	var mu sync.Mutex
	var lines []string
	pc := NewPeer(client, ct, Options{Workers: 1, Logf: func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	}})
	defer func() { _ = pc.Close() }()

	// Replies nobody is waiting for; the IDs land in four different
	// shards of the 16-way pending-call table (id & 15).
	ids := []uint64{3, 4, 17, 18, 33}
	for _, id := range ids {
		if err := st.Send(&Message{ID: id, Reply: true, Kind: MsgPong}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for pc.Stats().OrphanReplies < int64(len(ids)) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := pc.Stats().OrphanReplies; got != int64(len(ids)) {
		t.Fatalf("OrphanReplies = %d, want %d (every orphan counted)", got, len(ids))
	}
	mu.Lock()
	defer mu.Unlock()
	logged := 0
	for _, l := range lines {
		if strings.Contains(l, "orphan") {
			logged++
		}
	}
	if logged != 1 {
		t.Fatalf("orphan log fired %d times, want exactly once per peer:\n%s",
			logged, strings.Join(lines, "\n"))
	}
	if pc.Warn() == nil {
		t.Fatal("Warn() must report the recorded orphan anomaly")
	}
}

// sendCutTransport is a connection whose send side reports it closed
// while the receive side has not noticed yet: Recv blocks until Close.
type sendCutTransport struct {
	once   sync.Once
	closed chan struct{}
}

func (t *sendCutTransport) Send(*Message) error { return fmt.Errorf("%w: wire cut", ErrClosed) }
func (t *sendCutTransport) Recv() (*Message, error) {
	<-t.closed
	return nil, ErrClosed
}
func (t *sendCutTransport) Close() error {
	t.once.Do(func() { close(t.closed) })
	return nil
}

// TestSendRetriesExhaustedOnClosedTransportIsPeerGone: when every send
// attempt finds the transport closed before the receive loop has seen
// the loss, the call fails as a disconnect (vm.ErrPeerGone), so the VM's
// failover runs, not as a bare transport error the application sees.
func TestSendRetriesExhaustedOnClosedTransportIsPeerGone(t *testing.T) {
	reg := failureRegistry(nil)
	client := vm.New(reg, vm.Config{Role: vm.RoleClient})
	p := NewPeer(client, &sendCutTransport{closed: make(chan struct{})},
		Options{Workers: 1, RetryMax: 2, RetryBase: time.Millisecond})
	defer p.Close()
	err := p.Ping()
	if !errors.Is(err, vm.ErrPeerGone) {
		t.Fatalf("ping over a cut connection = %v, want an error wrapping vm.ErrPeerGone", err)
	}
}
