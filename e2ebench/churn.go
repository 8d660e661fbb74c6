package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"aide"
	"aide/internal/fleet"
)

// session-churn shape: each op is one whole tenant session.
const (
	churnObjects      = 16
	churnObjectSize   = 64 << 10
	churnInvokes      = 16
	churnClientHeap   = 2 << 20 // the 16 objects fill half of it
	churnSurrogates   = 2
	churnTenants      = 2
	churnRefreshEvery = 8 // sessions per worker between fleet refreshes
	churnWarmup       = 8
)

// churnPlan is one session's seeded inputs. Bases are unique per session,
// so a balance read from another tenant's object cannot pass the gate.
type churnPlan struct {
	base   [churnObjects]int64
	target [churnInvokes]int
	delta  [churnInvokes]int64
}

// planSession derives session i's plan from the seed alone, whichever
// worker runs it.
func planSession(seed, i int64) churnPlan {
	rng := rand.New(rand.NewSource(seed*1_000_003 + i))
	var p churnPlan
	for j := range p.base {
		p.base[j] = (i+1)*1_000_000 + int64(j)*10_000 + rng.Int63n(10_000)
	}
	for k := range p.target {
		p.target[k] = rng.Intn(churnObjects)
		p.delta[k] = 1 + rng.Int63n(1000)
	}
	return p
}

// want returns the balances the plan must leave behind.
func (p *churnPlan) want() []int64 {
	w := make([]int64, churnObjects)
	copy(w, p.base[:])
	for k, t := range p.target {
		w[t] += p.delta[k]
	}
	return w
}

func churnWorkload() *workload {
	return &workload{name: "session-churn", workers: workersFor(churnTenants), setups: 25, setup: setupChurn}
}

type churnFixture struct {
	*platform
	next     atomic.Int64 // next session number
	perWork  []int        // sessions run by each worker (each worker owns its slot)
	rootName [churnObjects]string
}

func setupChurn(ctx context.Context, cfg fixtureConfig) (fixture, error) {
	reg, err := fleet.WorkloadRegistry()
	if err != nil {
		return nil, err
	}
	p, err := newPlatform(ctx, cfg, reg, churnSurrogates)
	if err != nil {
		return nil, err
	}
	f := &churnFixture{platform: p, perWork: make([]int, churnTenants)}
	for j := range f.rootName {
		f.rootName[j] = fmt.Sprintf("acct%d", j)
	}
	for i := 0; i < churnWarmup; i++ {
		if err := f.op(ctx, 0, nil); err != nil {
			_ = f.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return f, nil
}

// op is one tenant session: place across the fleet, attach, create 16
// objects, offload them, invoke 16 times remotely, read every balance
// back, and close.
func (f *churnFixture) op(ctx context.Context, w int, sink *traceSink) error {
	i := f.next.Add(1) - 1
	plan := planSession(f.cfg.seed, i)
	if f.perWork[w]%churnRefreshEvery == 0 {
		f.refresh(ctx, sink)
	}
	f.perWork[w]++
	client, treg, tr := f.newClient(churnClientHeap, sessionTracerSpans, false)
	if err := f.place(ctx, client, sink); err != nil {
		_ = client.Close()
		return err
	}
	t0 := time.Now()
	err := f.session(ctx, client, &plan)
	sink.record(spanBody, t0)
	if cerr := closeClient(client, sink); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("session %d: %w", i, err)
	}
	if err := sink.takeAll(tr); err != nil {
		return err
	}
	f.retire(client, churnClientHeap, treg)
	return nil
}

func (f *churnFixture) session(ctx context.Context, client *aide.Client, plan *churnPlan) error {
	th := client.Thread()
	objs := make([]aide.ObjectID, churnObjects)
	for j := range objs {
		obj, err := th.New(fleet.WorkloadClass, churnObjectSize)
		if err != nil {
			return err
		}
		client.VM().SetRoot(f.rootName[j], obj)
		if err := th.SetField(obj, "bal", aide.Int(plan.base[j])); err != nil {
			return err
		}
		objs[j] = obj
	}
	rep, err := client.OffloadContext(ctx)
	if err != nil {
		return fmt.Errorf("offload: %w", err)
	}
	if err := checkInt("offloaded objects", int64(rep.Objects), churnObjects); err != nil {
		return err
	}
	bal := append([]int64(nil), plan.base[:]...)
	for k, t := range plan.target {
		ret, err := th.Invoke(objs[t], "add", aide.Int(plan.delta[k]))
		if err != nil {
			return err
		}
		bal[t] += plan.delta[k]
		if err := checkInt("add return", ret.I, bal[t]); err != nil {
			return err
		}
	}
	got := make([]int64, churnObjects)
	for j, obj := range objs {
		v, err := th.GetField(obj, "bal")
		if err != nil {
			return err
		}
		got[j] = v.I
	}
	return checkInts("session balances", got, plan.want())
}

// finish gates both surrogates' session tables back to empty.
func (f *churnFixture) finish(context.Context) error { return f.sessionsDrained() }
