package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"aide"
	"aide/internal/apps"
)

// jnCounts are the counts one JavaNote run produces. The scenario is
// deterministic, so every run must reproduce jnPinned exactly.
type jnCounts struct {
	Objects   int64 // objects the client VM created
	Local     int64 // invocations the client VM executed
	Remote    int64 // invocations the client VM forwarded to the surrogate
	Offloaded int64 // objects moved by the offloads Client.Offloads reports
	Offloads  int64 // offload operations
}

// jnPinned is what the paper's §5.1 scenario yields on a 6 MiB client
// heap attached to one surrogate.
var jnPinned = jnCounts{Objects: 5044, Local: 827866, Remote: 3744, Offloaded: 1182, Offloads: 1}

// checkJavaNote is the javanote-offload op gate.
func checkJavaNote(got, want jnCounts) error {
	return errors.Join(
		checkAtLeast("offloads", got.Offloads, 1),
		checkInt("objects created", got.Objects, want.Objects),
		checkInt("local invocations", got.Local, want.Local),
		checkInt("remote invocations", got.Remote, want.Remote),
		checkInt("offloaded objects", got.Offloaded, want.Offloaded),
	)
}

// javaNoteWorkload is the paper's §5.1 loop, live: JavaNote on a client
// whose 6 MiB heap cannot hold it, attached to a surrogate over loopback
// TCP. Memory pressure drives monitor → MINCUT → policy → migration, and
// the rest of the run invokes across the socket. The scenario is fixed
// by the paper, so the seed does not change its inputs.
func javaNoteWorkload() *workload {
	return &workload{name: "javanote-offload", workers: 1, setups: 5, setup: setupJavaNote}
}

type jnFixture struct {
	*platform
	spec   *apps.Spec
	driver apps.Driver
}

func setupJavaNote(ctx context.Context, cfg fixtureConfig) (fixture, error) {
	spec := apps.JavaNote()
	reg, driver, err := spec.Build()
	if err != nil {
		return nil, fmt.Errorf("build %s: %w", spec.Name, err)
	}
	p, err := newPlatform(ctx, cfg, reg, 1)
	if err != nil {
		return nil, err
	}
	f := &jnFixture{platform: p, spec: spec, driver: driver}
	// Warm-up: one full run, gated like every timed op.
	if err := f.op(ctx, 0, nil); err != nil {
		_ = f.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return f, nil
}

// op is one full JavaNote run: refresh the fleet, place a fresh client,
// run the application, close, and check the pinned counts.
func (f *jnFixture) op(ctx context.Context, _ int, sink *traceSink) error {
	f.refresh(ctx, sink)
	client, treg, tr := f.newClient(f.spec.EmuHeap, opTracerSpans, true, aide.WithLink(aide.WaveLAN()))
	if err := f.place(ctx, client, sink); err != nil {
		_ = client.Close()
		return err
	}
	t0 := time.Now()
	runErr := f.driver(client.Thread())
	sink.record(spanBody, t0)
	if err := closeClient(client, sink); err != nil {
		return err
	}
	if runErr != nil {
		return fmt.Errorf("javanote: %w", runErr)
	}
	if err := sink.takeAll(tr); err != nil {
		return err
	}
	c := readCounters(treg)
	reports, _ := client.Offloads()
	got := jnCounts{Objects: c[ctrObjects], Local: c[ctrLocal], Remote: c[ctrRemote], Offloads: int64(len(reports))}
	for _, r := range reports {
		got.Offloaded += int64(r.Objects)
	}
	f.retire(client, f.spec.EmuHeap, treg)
	return checkJavaNote(got, jnPinned)
}

// finish gates the surrogate's session table back to empty.
func (f *jnFixture) finish(context.Context) error { return f.sessionsDrained() }
