package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"aide"
	"aide/internal/remote"
	"aide/internal/telemetry"
)

// contract is the part of BENCHMARK.json the smoke tests hold the
// benchmark to: every metric it names must be printed with its unit.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// smoke runs one short invocation and checks that it is correct and
// prints exactly the wanted metrics, each with its unit, both in the
// result and in the human-readable lines.
func smoke(t *testing.T, workload string, traced bool, want map[string]string) {
	t.Helper()
	var out bytes.Buffer
	cfg := runConfig{workload: workload, seed: 7, seconds: 0.3, traced: traced, traceDir: t.TempDir(), setups: 1, out: &out}
	res, err := run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("printed %d metrics, contract names %d", len(res.Metrics), len(want))
	}
	for name, unit := range want {
		m, ok := res.Metrics[name]
		if !ok {
			t.Errorf("metric %s missing", name)
			continue
		}
		if m.Unit != unit {
			t.Errorf("metric %s unit %q, want %q", name, m.Unit, unit)
		}
		if !strings.Contains(out.String(), fmt.Sprintf("metric %-32s", name)) {
			t.Errorf("metric %s not printed by name", name)
		}
	}
	for _, s := range []string{"git_rev=", "go=", "gomaxprocs=", "nproc=", "cpu=", "seed=7", "run_seconds=", "loopback TCP, in-process surrogates"} {
		if !strings.Contains(out.String(), s) {
			t.Errorf("envelope lacks %q", s)
		}
	}
	if !strings.Contains(out.String(), "failed_frac=") {
		t.Error("failure accounting not printed")
	}
}

func TestSmokeEndToEnd(t *testing.T) {
	c := loadContract(t)
	want := map[string]string{}
	for _, m := range c.EndToEnd {
		want[m.Name] = m.Unit
	}
	for _, name := range workloadList() {
		t.Run(name, func(t *testing.T) { smoke(t, name, false, want) })
	}
}

func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("traced runs include the JavaNote monitor probe")
	}
	c := loadContract(t)
	want := map[string]string{}
	for _, m := range c.PerLayer {
		want[m.Name] = m.Unit
	}
	for _, name := range workloadList() {
		t.Run(name, func(t *testing.T) { smoke(t, name, true, want) })
	}
}

// TestContractWorkloadsExist checks that every workload BENCHMARK.json
// lists is implemented. session-churn is implemented but not listed: it
// trips the known session-leak defect (README.md), so it runs only when
// named on the command line.
func TestContractWorkloadsExist(t *testing.T) {
	c := loadContract(t)
	listed := map[string]bool{}
	for _, w := range c.Workloads {
		listed[w.Name] = true
	}
	for _, name := range workloadList() {
		if !listed[name] && name != "session-churn" {
			t.Errorf("workload %q is implemented but not in BENCHMARK.json", name)
		}
	}
	for _, w := range c.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
}

func TestSameSeedSameOps(t *testing.T) {
	a, b, other := newMixGen(11), newMixGen(11), newMixGen(12)
	differs := false
	for i := 0; i < 10000; i++ {
		x, y, z := a.next(), b.next(), other.next()
		if x != y {
			t.Fatalf("remote-mix op %d differs for the same seed: %+v vs %+v", i, x, y)
		}
		if x != z {
			differs = true
		}
	}
	if !differs {
		t.Error("remote-mix seeds 11 and 12 drew identical sequences")
	}
	differs = false
	for i := int64(0); i < 1000; i++ {
		x, y, z := planSession(11, i), planSession(11, i), planSession(12, i)
		if x != y {
			t.Fatalf("session-churn plan %d differs for the same seed", i)
		}
		if x != z {
			differs = true
		}
	}
	if !differs {
		t.Error("session-churn seeds 11 and 12 drew identical plans")
	}
}

// TestMixWeightsShareTimeEqually checks that every kind is drawn and
// that, at the measured p50s, every kind takes the same share of the
// run's time, to within per-mille rounding.
func TestMixWeightsShareTimeEqually(t *testing.T) {
	if mixTotal < 995 || mixTotal > 1005 {
		t.Errorf("weights sum to %d, want 1000", mixTotal)
	}
	var share [numMixKinds]float64
	total := 0.0
	for k, w := range mixWeights {
		if w <= 0 {
			t.Errorf("kind %s has weight %d", mixKindNames[k], w)
		}
		share[k] = float64(w) * mixP50us[k]
		total += share[k]
	}
	for k := range share {
		if f := share[k] / total; math.Abs(f-1.0/float64(numMixKinds)) > 0.003 {
			t.Errorf("kind %s takes %.4f of the time, want %.4f", mixKindNames[k], f, 1.0/float64(numMixKinds))
		}
	}
}

func TestGatesFire(t *testing.T) {
	if err := selfTestGates(); err != nil {
		t.Fatal(err)
	}
}

func TestClassify(t *testing.T) {
	cases := map[error]string{
		fmt.Errorf("x: %w", errVerify):                 failVerify,
		fmt.Errorf("x: %w", aide.ErrAdmissionRejected): failAdmission,
		fmt.Errorf("x: %w", aide.ErrShed):              failShed,
		fmt.Errorf("x: %w", aide.ErrEvicted):           failEvicted,
		fmt.Errorf("x: %w", aide.ErrDrained):           failDrained,
		fmt.Errorf("x: %w", remote.ErrCallTimeout):     failTimeout,
		remote.ErrDisconnected:                         failPeerGone,
		errors.New("boom"):                             failOther,
	}
	for err, want := range cases {
		if got := classify(err); got != want {
			t.Errorf("classify(%v) = %s, want %s", err, got, want)
		}
	}
}

// TestLedgerRowsSumToOp builds one synthetic op with nested spans and
// checks the attribution rules and that the rows add up to the op.
func TestLedgerRowsSumToOp(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	d := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	s := &traceSink{
		ops: []interval{{at(0), at(100)}},
		bench: []benchSpan{
			{spanRefresh, at(0), d(2)},
			{spanPlace, at(3), d(5)},
			{spanAttach, at(4), d(3)},
			{spanBody, at(10), d(80)},
			{spanClose, at(92), d(4)},
		},
		prog: []telemetry.Span{
			{Kind: telemetry.SpanRPC, Start: at(5), Dur: d(1)}, // attach's rpc, outside the body
			{Kind: telemetry.SpanRPC, Start: at(12), Dur: d(10)},
			{Kind: telemetry.SpanRPC, Start: at(15), Dur: d(10)}, // overlaps the previous one
			{Kind: telemetry.SpanRepartition, Note: "offload", Start: at(40), Dur: d(20)},
			{Kind: telemetry.SpanMigration, Note: "offload", Start: at(45), Dur: d(10)},
			{Kind: telemetry.SpanRPC, Start: at(47), Dur: d(5)}, // inside the migration
			{Kind: telemetry.SpanGC, Start: at(70)},
		},
	}
	var l ledger
	l.addSink(s)
	check := func(name string, got time.Duration, wantMs int) {
		t.Helper()
		if got != d(wantMs) {
			t.Errorf("%s = %v, want %dms", name, got, wantMs)
		}
	}
	check("rpc", l.rpc, 13)
	check("migration", l.migration, 10)
	check("repartition", l.repart, 10)
	check("vm.local", l.vmLocal, 80-13-20)
	check("attach", l.attach, 3)
	check("place", l.place, 2)
	check("refresh", l.refresh, 2)
	check("close", l.closeT, 4)
	check("unattributed", l.unattrib, 100-80-5-2-4)
	sum := l.rpc + l.migration + l.repart + l.vmLocal + l.attach + l.place + l.refresh + l.closeT + l.unattrib
	check("sum", sum, 100)

	var ev eventStats
	ev.addSink(s)
	if fmt.Sprint(ev.repartSelf, ev.migration, ev.offload, ev.place) != "[10] [10] [20] [2]" {
		t.Errorf("event stats: %+v", ev)
	}
}

func TestQuantile(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3}
	if got := quantile(v, 0.5); got != 3 {
		t.Errorf("p50 = %v", got)
	}
	if got := quantile(v, 0.99); got != 5 {
		t.Errorf("p99 = %v", got)
	}
}

// TestHistogram checks the histogram's quantiles against exact ones on
// a spread of latencies: within one bucket width (1/128 of the value).
func TestHistogram(t *testing.T) {
	var h histogram
	var exact []float64
	for i := 1; i <= 100_000; i++ {
		d := time.Duration(i*i%99_991) * 37 * time.Nanosecond
		h.add(d)
		exact = append(exact, d.Seconds())
	}
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999, 1} {
		want, got := quantile(exact, q), h.quantile(q)
		if math.Abs(got-want) > want/histSub {
			t.Errorf("q%g = %v, exact %v", q, got, want)
		}
	}
	var small, merged histogram
	for _, ms := range []int{1003, 998, 1042} {
		small.add(time.Duration(ms) * time.Millisecond)
	}
	if got := small.quantile(0.99); got != 1.042 {
		t.Errorf("small-sample p99 = %v, want the exact slowest, 1.042", got)
	}
	merged.merge(&small)
	merged.merge(&h)
	if merged.exact != nil || merged.n != h.n+3 {
		t.Errorf("merged %d samples, keeping %d exactly; want %d, none", merged.n, len(merged.exact), h.n+3)
	}
	for _, ns := range []int64{0, 1, 127, 128, 129, 255, 256, 1 << 20, 1<<20 + 12345, 1 << 40} {
		lo, width := histBounds(histIndex(ns))
		if ns < lo || ns >= lo+width {
			t.Errorf("%d ns lands in bucket [%d, %d)", ns, lo, lo+width)
		}
	}
}
