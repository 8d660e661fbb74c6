package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"aide"
)

// remote-mix shape: one app thread against objects already offloaded.
const (
	mixObjects    = 64
	mixObjectSize = 8 << 10
	mixClientHeap = 1 << 20 // the 64 objects fill half of it, so the policy offloads them
	mixChain      = 8       // pipeline depth
	mixVariants   = 4       // distinct payloads per echo size
	mixWarmupOps  = 500
	mixClass      = "Cell"
	mixMaxDelta   = 1000
)

// mixKind is one remote-mix operation type.
type mixKind uint8

const (
	kindAdd mixKind = iota
	kindEcho256
	kindEcho4k
	kindEcho64k
	kindGet
	kindSet
	kindPipe8
	numMixKinds
)

// mixKindNames name the kinds as the per-layer rows do (remote.<name>_us).
var mixKindNames = [numMixKinds]string{"invoke_small", "invoke_256b", "invoke_4k", "invoke_64k", "field_get", "field_set", "pipeline8"}

// mixP50us is each kind's p50 in µs as the traced run's remote.<kind>_us
// rows measured it: the median of five runs (seeds 1–5) on the reference
// machine in README.md.
var mixP50us = [numMixKinds]float64{26.5, 26.7, 34.4, 107.7, 25.3, 25.0, 54.0}

// mixWeights, in per mille, give every kind an equal share of the run's
// time: a kind's weight is inversely proportional to its measured p50.
// JavaNote's own traffic is small invokes only (README.md), so the mix
// is for coverage, and equal time shares let a change to any one kind
// move throughput as much as the same change to any other.
var mixWeights = timeShareWeights(mixP50us)

func timeShareWeights(p50 [numMixKinds]float64) [numMixKinds]int {
	sum := 0.0
	for _, p := range p50 {
		sum += 1 / p
	}
	var w [numMixKinds]int
	for k, p := range p50 {
		w[k] = int(math.Round(1000 / p / sum))
	}
	return w
}

// mixTotal is the sum of mixWeights, which rounding keeps near 1000.
var mixTotal = func() int {
	n := 0
	for _, w := range mixWeights {
		n += w
	}
	return n
}()

// echoSizes are the blob sizes of the echo kinds (0 for the others).
var echoSizes = [numMixKinds]int{kindEcho256: 256, kindEcho4k: 4 << 10, kindEcho64k: 64 << 10}

// mixOp is one generated remote-mix operation.
type mixOp struct {
	kind    mixKind
	obj     int            // target object index (first link of a pipeline)
	delta   int64          // add, set and pipeline argument
	payload int            // echo payload variant
	chain   [mixChain]int8 // pipeline object indexes; chain[0] == obj
}

// mixGen draws the seeded op sequence: the same seed yields the same ops.
type mixGen struct{ rng *rand.Rand }

func newMixGen(seed int64) *mixGen { return &mixGen{rng: rand.New(rand.NewSource(seed))} }

func (g *mixGen) next() mixOp {
	r := g.rng.Intn(mixTotal)
	var o mixOp
	for k, w := range mixWeights {
		if r < w {
			o.kind = mixKind(k)
			break
		}
		r -= w
	}
	o.obj = g.rng.Intn(mixObjects)
	o.delta = 1 + g.rng.Int63n(mixMaxDelta)
	o.payload = g.rng.Intn(mixVariants)
	o.chain[0] = int8(o.obj)
	for i := 1; i < mixChain; i++ {
		o.chain[i] = int8(g.rng.Intn(mixObjects))
	}
	return o
}

// mixRegistry defines Cell: add(x) adds x to bal and returns x+1; echo(b)
// returns b. Both bodies run on whichever VM hosts the object.
func mixRegistry() (*aide.Registry, error) {
	reg := aide.NewRegistry()
	_, err := reg.Register(aide.ClassSpec{
		Name:   mixClass,
		Fields: []string{"bal"},
		Methods: []aide.MethodSpec{
			{Name: "add", Body: func(th *aide.Thread, self aide.ObjectID, args []aide.Value) (aide.Value, error) {
				cur, err := th.GetField(self, "bal")
				if err != nil {
					return aide.Nil(), err
				}
				if err := th.SetField(self, "bal", aide.Int(cur.I+args[0].I)); err != nil {
					return aide.Nil(), err
				}
				return aide.Int(args[0].I + 1), nil
			}},
			{Name: "echo", Body: func(th *aide.Thread, self aide.ObjectID, args []aide.Value) (aide.Value, error) {
				return args[0], nil
			}},
		},
	})
	if err != nil {
		return nil, fmt.Errorf("remote-mix registry: %w", err)
	}
	return reg, nil
}

func remoteMixWorkload() *workload {
	return &workload{name: "remote-mix", workers: 1, setups: 25, setup: setupRemoteMix}
}

type mixFixture struct {
	*platform
	client   *aide.Client
	treg     *aide.TelemetryRegistry
	dr       *drainer
	th       *aide.Thread
	objs     []aide.ObjectID
	shadow   []int64 // expected bal of every object: the sum of its writes
	gen      *mixGen
	payloads [numMixKinds][][]byte
	closed   bool
}

// setupRemoteMix places one client, creates the objects, offloads them
// all through the policy, and warms up on the seeded sequence.
func setupRemoteMix(ctx context.Context, cfg fixtureConfig) (fixture, error) {
	reg, err := mixRegistry()
	if err != nil {
		return nil, err
	}
	p, err := newPlatform(ctx, cfg, reg, 1)
	if err != nil {
		return nil, err
	}
	f, err := newMixFixture(ctx, p, cfg)
	if err != nil {
		_ = p.close()
		return nil, err
	}
	for i := 0; i < mixWarmupOps; i++ {
		if err := f.op(ctx, 0, nil); err != nil {
			_ = f.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return f, nil
}

func newMixFixture(ctx context.Context, p *platform, cfg fixtureConfig) (*mixFixture, error) {
	client, treg, tr := p.newClient(mixClientHeap, opTracerSpans, false)
	f := &mixFixture{platform: p, client: client, treg: treg, gen: newMixGen(cfg.seed)}
	if tr != nil {
		f.dr = &drainer{tr: tr}
	}
	if err := p.place(ctx, client, cfg.sink); err != nil {
		_ = client.Close()
		return nil, err
	}
	f.th = client.Thread()
	for i := 0; i < mixObjects; i++ {
		obj, err := f.th.New(mixClass, mixObjectSize)
		if err != nil {
			_ = client.Close()
			return nil, err
		}
		client.VM().SetRoot(fmt.Sprintf("cell%d", i), obj)
		if err := f.th.SetField(obj, "bal", aide.Int(0)); err != nil {
			_ = client.Close()
			return nil, err
		}
		f.objs = append(f.objs, obj)
	}
	f.shadow = make([]int64, mixObjects)
	rep, err := client.OffloadContext(ctx)
	if err == nil {
		err = checkInt("remote-mix offloaded objects", int64(rep.Objects), mixObjects)
	}
	if err != nil {
		_ = client.Close()
		return nil, fmt.Errorf("offload: %w", err)
	}
	rng := rand.New(rand.NewSource(cfg.seed ^ 0x5eed))
	for k, n := range echoSizes {
		for v := 0; n > 0 && v < mixVariants; v++ {
			b := make([]byte, n)
			rng.Read(b)
			f.payloads[k] = append(f.payloads[k], b)
		}
	}
	return f, nil
}

func (f *mixFixture) op(ctx context.Context, _ int, sink *traceSink) error {
	o := f.gen.next()
	t0 := time.Now()
	err := f.do(ctx, o)
	sink.record(spanBody, t0)
	if sink != nil && f.dr.due(opTracerSpans) {
		if derr := f.dr.drainInto(sink); derr != nil && err == nil {
			err = derr
		}
	}
	return err
}

// do executes o and checks its result against the shadow state.
func (f *mixFixture) do(ctx context.Context, o mixOp) error {
	obj := f.objs[o.obj]
	switch o.kind {
	case kindAdd:
		ret, err := f.th.Invoke(obj, "add", aide.Int(o.delta))
		if err != nil {
			return err
		}
		f.shadow[o.obj] += o.delta
		return checkInt("add return", ret.I, o.delta+1)
	case kindEcho256, kindEcho4k, kindEcho64k:
		want := f.payloads[o.kind][o.payload]
		ret, err := f.th.Invoke(obj, "echo", aide.Blob(want))
		if err != nil {
			return err
		}
		return checkBytes("echo", ret.Bytes, want)
	case kindGet:
		v, err := f.th.GetField(obj, "bal")
		if err != nil {
			return err
		}
		return checkInt("field read", v.I, f.shadow[o.obj])
	case kindSet:
		next := f.shadow[o.obj] + o.delta
		if err := f.th.SetField(obj, "bal", aide.Int(next)); err != nil {
			return err
		}
		f.shadow[o.obj] = next
		return nil
	case kindPipe8:
		pl := f.client.NewPipeline()
		pr := pl.Invoke(f.objs[o.chain[0]], "add", aide.Int(o.delta))
		for i := 1; i < mixChain; i++ {
			pr = pl.Invoke(f.objs[o.chain[i]], "add", pr)
		}
		rets, err := pl.Run(ctx)
		if err != nil {
			return err
		}
		if err := checkInt("pipeline results", int64(len(rets)), mixChain); err != nil {
			return err
		}
		for i := 0; i < mixChain; i++ {
			arg := o.delta + int64(i)
			f.shadow[o.chain[i]] += arg
			if err := checkInt(fmt.Sprintf("pipeline call %d return", i), rets[i].I, arg+1); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("unknown remote-mix kind %d", o.kind)
}

// finish reads every object back (each must equal the sum of its
// writes), closes the client, and gates the surrogate's sessions to 0.
func (f *mixFixture) finish(context.Context) error {
	got := make([]int64, len(f.objs))
	for i, obj := range f.objs {
		v, err := f.th.GetField(obj, "bal")
		if err != nil {
			return fmt.Errorf("final read of object %d: %w", i, err)
		}
		got[i] = v.I
	}
	if err := checkInts("remote-mix final balances", got, f.shadow); err != nil {
		return err
	}
	if f.dr != nil {
		if err := f.dr.drainInto(f.cfg.sink); err != nil {
			return err
		}
	}
	f.closed = true
	if err := closeClient(f.client, f.cfg.sink); err != nil {
		return err
	}
	return f.sessionsDrained()
}

func (f *mixFixture) close() error {
	if !f.closed {
		f.closed = true
		_ = f.client.Close() // teardown after a failed run; the gate already reported
	}
	return f.platform.close()
}

func (f *mixFixture) counters() map[string]int64 {
	if f.treg == nil {
		return map[string]int64{}
	}
	return readCounters(f.treg)
}

func (f *mixFixture) lastClient() (*aide.Client, int64) { return f.client, mixClientHeap }
