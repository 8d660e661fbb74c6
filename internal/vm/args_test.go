package vm

import (
	"bytes"
	"testing"
	"time"
)

// argsRegistry registers "Args": echo returns its first argument after
// scribbling on its args slice and appending past its length; outer(x) calls inner(y) on
// itself and returns what its own args[0] holds afterwards.
func argsRegistry(t *testing.T) *Registry {
	t.Helper()
	reg := NewRegistry()
	_, err := reg.Register(ClassSpec{
		Name: "Args",
		Methods: []MethodSpec{
			{Name: "echo", Body: func(th *Thread, self ObjectID, args []Value) (Value, error) {
				ret := args[0]
				args[0] = Str("scribbled")
				_ = append(args, Blob([]byte("appended past len")))
				return ret, nil
			}},
			{Name: "outer", Body: func(th *Thread, self ObjectID, args []Value) (Value, error) {
				if _, err := th.Invoke(self, "echo", Str("y"), Blob([]byte("inner"))); err != nil {
					return Nil(), err
				}
				return args[0], nil
			}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// TestNestedInvokeKeepsCallerArgs: a body called with (x) that invokes
// another body with (y), which scribbles on its own args, still sees x.
// Each frame owns its args buffer, so reuse of pooled frames cannot alias
// a live caller's arguments.
func TestNestedInvokeKeepsCallerArgs(t *testing.T) {
	v := New(argsRegistry(t), Config{})
	th := v.NewThread()
	id, err := th.New("Args", 16)
	if err != nil {
		t.Fatal(err)
	}
	v.SetRoot("a", id)
	for i := 0; i < 3; i++ { // later rounds run on recycled frames
		x := Blob([]byte("outer-x"))
		ret, err := th.Invoke(id, "outer", x)
		if err != nil {
			t.Fatal(err)
		}
		if ret.Kind != KindBytes || !bytes.Equal(ret.Bytes, x.Bytes) {
			t.Fatalf("round %d: outer saw args[0] = %v after the nested call, want %v", i, ret, x)
		}
	}
	// The caller's own slice is never the body's buffer.
	caller := []Value{Str("mine")}
	if _, err := th.Invoke(id, "echo", caller...); err != nil {
		t.Fatal(err)
	}
	if caller[0].S != "mine" {
		t.Fatalf("body wrote through to the caller's slice: %v", caller[0])
	}
}

// TestPooledFramesHoldNoValues: a frame back in the pool references no
// argument Value, even one a body appended beyond the slice it was given,
// so pooled frames never pin payload blobs.
func TestPooledFramesHoldNoValues(t *testing.T) {
	v := New(argsRegistry(t), Config{})
	th := v.NewThread()
	id, err := th.New("Args", 16)
	if err != nil {
		t.Fatal(err)
	}
	v.SetRoot("a", id)
	// The second echo reuses the first one's frame, whose buffer has room
	// past one argument, so its append lands inside the pooled buffer.
	for _, args := range [][]Value{
		{Int(1), Int(2), Int(3)},
		{Blob(make([]byte, 1<<10))},
	} {
		if _, err := th.Invoke(id, "echo", args...); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := th.Invoke(id, "outer", Blob(make([]byte, 1<<10))); err != nil {
		t.Fatal(err)
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if len(v.frames) != 0 || len(v.framePool) == 0 {
		t.Fatalf("frames %d live, %d pooled; want 0 live and some pooled", len(v.frames), len(v.framePool))
	}
	for i, f := range v.framePool {
		if len(f.args) != 0 {
			t.Errorf("pooled frame %d: len(args) = %d, want 0", i, len(f.args))
		}
		for j, a := range f.args[:cap(f.args)] {
			if a.Kind != KindNil || a.S != "" || a.Bytes != nil {
				t.Errorf("pooled frame %d: args[%d] still holds %v", i, j, a)
			}
		}
	}
}

// retainingPeer records the args slice of every remote call, the way a
// Peer that keeps working after returning (speculation) would.
type retainingPeer struct {
	erringPeer
	kept [][]Value
}

func (p *retainingPeer) InvokeRemote(_ ObjectID, _ string, args []Value) (Value, time.Duration, error) {
	p.kept = append(p.kept, args)
	return Nil(), 0, nil
}

// TestRemoteInvokeHandsPeerAnOwnedCopy: the args a Peer receives survive
// the caller reusing its slice.
func TestRemoteInvokeHandsPeerAnOwnedCopy(t *testing.T) {
	v := New(migRegistry(t), Config{Role: RoleClient, HeapCapacity: 1 << 20})
	p := &retainingPeer{}
	idx := v.AttachPeer(p)
	stub, err := v.StubFor(idx, ObjectID(7), "Node")
	if err != nil {
		t.Fatal(err)
	}
	v.SetRoot("stub", stub)
	args := []Value{Int(1)}
	if _, err := v.NewThread().Invoke(stub, "getVal", args...); err != nil {
		t.Fatal(err)
	}
	args[0] = Int(2)
	if len(p.kept) != 1 || p.kept[0][0].I != 1 {
		t.Fatalf("peer's args = %v, want its own copy holding 1", p.kept)
	}
}
