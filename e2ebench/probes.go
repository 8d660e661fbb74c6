package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"aide"
	"aide/internal/apps"
	"aide/internal/graph"
	"aide/internal/mincut"
	"aide/internal/policy"
	"aide/internal/remote"
	"aide/internal/vm"
)

// Probe sizes: enough samples for a stable median, small enough that all
// probes together take a few seconds.
const (
	kindProbeRounds  = 300
	codecBatches     = 50
	codecBatchCalls  = 64
	floorRoundTrips  = 300
	floorWarmup      = 20
	monitorPairs     = 3
	partitionSamples = 15
)

// sizeClass pairs a remote-mix message size with the invoke kind that
// carries it.
type sizeClass struct {
	name string
	kind mixKind
	blob int // 0: an integer argument
}

var sizeClasses = []sizeClass{
	{"small", kindAdd, 0},
	{"256b", kindEcho256, 256},
	{"4k", kindEcho4k, 4 << 10},
	{"64k", kindEcho64k, 64 << 10},
}

// kindProbe times every remote-mix kind, round-robin, on a fresh
// untraced remote-mix fixture and returns each kind's p50 in µs.
func kindProbe(ctx context.Context, seed int64) ([numMixKinds]float64, error) {
	var p50 [numMixKinds]float64
	reg, err := mixRegistry()
	if err != nil {
		return p50, err
	}
	cfg := fixtureConfig{seed: seed}
	p, err := newPlatform(ctx, cfg, reg, 1)
	if err != nil {
		return p50, err
	}
	f, err := newMixFixture(ctx, p, cfg)
	if err != nil {
		_ = p.close()
		return p50, err
	}
	var lat [numMixKinds][]float64
	for n := 0; n < kindProbeRounds; n++ {
		for k := mixKind(0); k < numMixKinds; k++ {
			o := f.gen.next()
			o.kind = k
			t0 := time.Now()
			err := f.do(ctx, o)
			lat[k] = append(lat[k], time.Since(t0).Seconds())
			if err != nil {
				_ = f.close()
				return p50, fmt.Errorf("kind probe %s: %w", mixKindNames[k], err)
			}
		}
	}
	err = errors.Join(f.finish(ctx), f.close())
	for k := range lat {
		p50[k] = median(lat[k]) * 1e6
	}
	return p50, err
}

// codecFrames builds the request and reply frames of one invoke of the
// size class, exactly as the peer encodes them.
func codecFrames(sc sizeClass) (req, reply *remote.Message) {
	arg := vm.WireValue{Kind: vm.KindInt, I: 7}
	ret := vm.WireValue{Kind: vm.KindInt, I: 8}
	method := "add"
	if sc.blob > 0 {
		b := make([]byte, sc.blob)
		for i := range b {
			b[i] = byte(i * 31)
		}
		arg = vm.WireValue{Kind: vm.KindBytes, Bytes: b}
		ret = arg
		method = "echo"
	}
	req = &remote.Message{ID: 1 << 20, Kind: remote.MsgInvoke, Obj: 42, Method: method, Args: []vm.WireValue{arg}}
	reply = &remote.Message{ID: 1 << 20, Reply: true, Kind: remote.MsgInvoke, Ret: ret, ElapsedNanos: 12345}
	return req, reply
}

// codecProbe returns, per size class, the µs one invoke spends in the
// codec: AppendFrame and DecodeFrame of its request and its reply. It
// also returns the request frame size, which the loopback floor echoes.
func codecProbe() (us map[string]float64, frameBytes map[string]int, err error) {
	us, frameBytes = map[string]float64{}, map[string]int{}
	for _, sc := range sizeClasses {
		req, reply := codecFrames(sc)
		var buf []byte
		batches := make([]float64, 0, codecBatches)
		for b := 0; b < codecBatches; b++ {
			t0 := time.Now()
			for i := 0; i < codecBatchCalls; i++ {
				for _, m := range [...]*remote.Message{req, reply} {
					buf, err = remote.AppendFrame(buf[:0], m)
					if err != nil {
						return nil, nil, err
					}
					if _, err = remote.DecodeFrame(buf); err != nil {
						return nil, nil, err
					}
				}
			}
			batches = append(batches, time.Since(t0).Seconds()/codecBatchCalls)
		}
		buf, err = remote.AppendFrame(buf[:0], req)
		if err != nil {
			return nil, nil, err
		}
		us[sc.name] = median(batches) * 1e6
		frameBytes[sc.name] = len(buf)
	}
	return us, frameBytes, nil
}

// floorProbe measures the benchmark's own raw loopback TCP echo: one
// write and one read each way, no codec, no platform. It returns the p50
// round trip in µs for each size class's request frame size.
func floorProbe(frameBytes map[string]int) (map[string]float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		var hdr [4]byte
		buf := make([]byte, 0, 128<<10)
		for {
			if _, err := io.ReadFull(conn, hdr[:]); err != nil {
				return
			}
			n := int(binary.LittleEndian.Uint32(hdr[:]))
			buf = buf[:n]
			if _, err := io.ReadFull(conn, buf); err != nil {
				return
			}
			if _, err := conn.Write(buf); err != nil {
				return
			}
		}
	}()
	defer func() {
		_ = ln.Close()
		wg.Wait()
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	out := map[string]float64{}
	for _, sc := range sizeClasses {
		n := frameBytes[sc.name]
		msg := make([]byte, 4+n)
		binary.LittleEndian.PutUint32(msg, uint32(n))
		back := make([]byte, n)
		var lat []float64
		for i := 0; i < floorWarmup+floorRoundTrips; i++ {
			t0 := time.Now()
			if _, err := conn.Write(msg); err != nil {
				return nil, err
			}
			if _, err := io.ReadFull(conn, back); err != nil {
				return nil, err
			}
			if i >= floorWarmup {
				lat = append(lat, time.Since(t0).Seconds())
			}
		}
		out[sc.name] = median(lat) * 1e6
	}
	return out, nil
}

// monitorProbe is the paper's monitoring-overhead experiment in wall
// time: JavaNote on an unconstrained heap with no surrogate, with the
// monitor on versus WithoutMonitoring, in alternating order. It returns
// (on - off) / off over the medians.
func monitorProbe() (float64, error) {
	spec := apps.JavaNote()
	reg, driver, err := spec.Build()
	if err != nil {
		return 0, err
	}
	runOnce := func(monitored bool) (float64, error) {
		opts := []aide.Option{aide.WithHeap(spec.RecordHeap)}
		if !monitored {
			opts = append(opts, aide.WithoutMonitoring())
		}
		client := aide.NewClient(reg, opts...)
		t0 := time.Now()
		err := driver(client.Thread())
		d := time.Since(t0).Seconds()
		return d, errors.Join(err, client.Close())
	}
	var on, off []float64
	for i := 0; i < monitorPairs; i++ {
		for _, monitored := range [2]bool{i%2 == 0, i%2 != 0} {
			d, err := runOnce(monitored)
			if err != nil {
				return 0, fmt.Errorf("monitor probe: %w", err)
			}
			if monitored {
				on = append(on, d)
			} else {
				off = append(off, d)
			}
		}
	}
	return (median(on) - median(off)) / median(off), nil
}

// partitionTimes are the medians, in ms, of the three partitioning
// stages run on one client's monitor graph.
type partitionTimes struct{ graph, candidates, choose float64 }

// partitionProbe times Client.Graph, MINCUT candidate generation (as the
// client runs it) and the memory policy on the graph of a client the
// workload ran.
func partitionProbe(client *aide.Client, heap int64) (partitionTimes, error) {
	var g, c, p []float64
	mp := policy.MemoryPolicy{MinFreeFraction: aide.InitialPolicy().MinFreeFraction}
	for i := 0; i < partitionSamples; i++ {
		t0 := time.Now()
		gr, err := client.Graph()
		if err != nil {
			return partitionTimes{}, err
		}
		t1 := time.Now()
		sc := &mincut.Scratch{}
		cands, err := sc.Candidates(sc.FromGraph(gr, graph.BytesWeight))
		if err != nil {
			return partitionTimes{}, fmt.Errorf("mincut on a %d-class graph: %w", len(gr.Nodes()), err)
		}
		t2 := time.Now()
		// The workload already offloaded, so the policy may well find
		// nothing beneficial left; the decision is timed either way.
		if _, err := mp.Choose(gr, heap, cands); err != nil && !errors.Is(err, policy.ErrNotBeneficial) {
			return partitionTimes{}, err
		}
		t3 := time.Now()
		g = append(g, ms(t1.Sub(t0)))
		c = append(c, ms(t2.Sub(t1)))
		p = append(p, ms(t3.Sub(t2)))
	}
	return partitionTimes{median(g), median(c), median(p)}, nil
}
