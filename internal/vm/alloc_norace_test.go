//go:build !race

// The race detector allocates on instrumented paths, so the alloc gate
// builds only without it.

package vm_test

import (
	"testing"

	"aide/internal/monitor"
	"aide/internal/vm"
)

// TestLocalDispatchAllocFree gates the local hot paths at zero heap
// allocations with a monitor attached: a three-argument invoke (one
// Blob), a field read and a field write.
func TestLocalDispatchAllocFree(t *testing.T) {
	reg := vm.NewRegistry()
	_, err := reg.Register(vm.ClassSpec{
		Name:   "C",
		Fields: []string{"n"},
		Methods: []vm.MethodSpec{{
			Name: "take",
			Body: func(th *vm.Thread, self vm.ObjectID, args []vm.Value) (vm.Value, error) {
				return vm.Int(args[0].I + int64(len(args[2].Bytes))), nil
			},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	v := vm.New(reg, vm.Config{HeapCapacity: 1 << 20})
	v.SetHooks(monitor.New(monitor.RegistryMeta(reg)))
	th := v.NewThread()
	id, err := th.New("C", 64)
	if err != nil {
		t.Fatal(err)
	}
	v.SetRoot("c", id)
	blob := make([]byte, 256)

	ops := []struct {
		name string
		op   func() error
	}{
		{"Invoke", func() error {
			_, err := th.Invoke(id, "take", vm.Int(1), vm.Str("s"), vm.Blob(blob))
			return err
		}},
		{"GetField", func() error {
			_, err := th.GetField(id, "n")
			return err
		}},
		{"SetField", func() error {
			return th.SetField(id, "n", vm.Int(3))
		}},
	}
	for _, o := range ops {
		var opErr error
		allocs := testing.AllocsPerRun(200, func() {
			if err := o.op(); err != nil {
				opErr = err
			}
		})
		if opErr != nil {
			t.Fatalf("%s: %v", o.name, opErr)
		}
		if allocs != 0 {
			t.Errorf("%s: %.1f allocs per call, want 0", o.name, allocs)
		}
	}
}
