package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/evidence"
	"repro/surveyor"
)

// TestMain lets the test binary serve as the distribute workload's
// worker and as a cold set-up child, as the benchmark binary does.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-worker" {
		if err := serveWorker(); err != nil {
			os.Exit(1)
		}
		os.Exit(0)
	}
	if len(os.Args) > 1 && os.Args[1] == "-setup" {
		setupChild()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestQuantiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := quantile(xs, 0.25); got != 2 {
		t.Errorf("q25 = %v, want 2", got)
	}
	if got := quantile(xs, 1); got != 5 {
		t.Errorf("q100 = %v, want 5", got)
	}
	if xs[0] != 5 {
		t.Errorf("quantile reordered its input")
	}
	if !math.IsNaN(median(nil)) {
		t.Errorf("median of nothing is not NaN")
	}
	if _, v := tailQuantile(make([]float64, 39)); !math.IsNaN(v) {
		t.Errorf("39 samples support a tail percentile")
	}
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(i)
	}
	if q, v := tailQuantile(big); q != 0.99 || math.Abs(v-989.01) > 1e-9 {
		t.Errorf("tail of 1000 = q%v %v, want q0.99 989.01", q, v)
	}
	if q, _ := tailQuantile(big[:100]); math.Abs(q-0.9) > 1e-12 {
		t.Errorf("tail of 100 at q%v, want q0.9", q)
	}
}

func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{name: "pass", parent: -1, start: 0, end: 10 * time.Millisecond},
		{name: "decode", parent: 0, start: 1 * time.Millisecond, end: 4 * time.Millisecond},
		{name: "mine", parent: 0, start: 4 * time.Millisecond, end: 9 * time.Millisecond},
	}
	self := map[string]time.Duration{}
	for _, lt := range tr.selfTimes() {
		self[lt.name] = lt.self
	}
	if self["pass"] != 2*time.Millisecond || self["decode"] != 3*time.Millisecond || self["mine"] != 5*time.Millisecond {
		t.Errorf("self times %v", self)
	}
	var b strings.Builder
	if err := tr.writeChrome(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil || len(doc.TraceEvents) != 3 {
		t.Fatalf("chrome trace: %v, %d events", err, len(doc.TraceEvents))
	}
}

// smokeScale keeps the smoke runs to about 3,000 documents.
const smokeScale = 1

func smoke(t *testing.T, workload string, trace bool) *result {
	t.Helper()
	res, err := run(options{
		workload: workload, seed: 3, seconds: time.Second, trace: trace, scale: smokeScale,
		workDir: t.TempDir(), traceDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestWorkloadSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res := smoke(t, w, trace)
			if !res.Correct {
				t.Errorf("%s trace=%v: checks failed", w, trace)
			}
			// Each round is one unit plus a 50-query mix with the two
			// "pretty celebrities" queries failing.
			if res.Attempted == 0 || res.Attempted%51 != 0 || res.Failed*51 != res.Attempted*2 {
				t.Errorf("%s trace=%v: attempted %d, failed %d, want 2 of every 51", w, trace, res.Attempted, res.Failed)
			}
			want := endToEndMetrics
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := res.Metrics[m.name]
				if !ok || v.Unit != m.unit {
					t.Errorf("%s trace=%v: metric %s = %+v", w, trace, m.name, v)
				}
				if !trace && v.Value <= 0 {
					t.Errorf("%s: end-to-end %s = %v, want > 0", w, m.name, v.Value)
				}
			}
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := run(options{workload: "nope", seed: 1, seconds: time.Second, scale: smokeScale,
		workDir: t.TempDir()}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the emitted metrics in step.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for i := range spec.Workloads {
		if i < len(workloads) && spec.Workloads[i].Name != workloads[i] {
			t.Errorf("workload %d: %q vs %q", i, spec.Workloads[i].Name, workloads[i])
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: %+v vs %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEndMetrics)
	same("per_layer", spec.PerLayer, perLayer)
}

// fixture mines a small corpus and returns its checker and result view.
func fixture(t *testing.T) (*checker, *inputs, view, *surveyor.Result) {
	t.Helper()
	in, err := buildInputs(3, smokeScale, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sys := surveyor.NewSystemWithBuiltinKB(kbSeed)
	res := sys.Mine(in.docs, surveyor.Config{Rho: rhoFor(smokeScale)})
	chk := newChecker(in)
	v := viewOf(res)
	if errs := chk.checkResult(v, len(in.docs)); len(errs) > 0 {
		t.Fatalf("clean result fails its checks: %v", errs)
	}
	return chk, in, v, res
}

// clone deep-copies the parts of a view the corruptions touch.
func clone(v view) view {
	out := v
	out.groups = make([]surveyor.GroupSummary, len(v.groups))
	for i, g := range v.groups {
		g.Entities = append([]surveyor.EntityOpinion(nil), g.Entities...)
		out.groups[i] = g
	}
	out.evidence = append([]surveyor.EvidenceCounts(nil), v.evidence...)
	return out
}

// TestChecksCatchCorruption corrupts a correct result in one way at a time
// and shows that the check responsible for it fails.
func TestChecksCatchCorruption(t *testing.T) {
	chk, in, v, res := fixture(t)
	docs := len(in.docs)
	decided := func(g surveyor.GroupSummary) int {
		for j, e := range g.Entities {
			if e.Opinion != surveyor.Unsolved {
				return j
			}
		}
		t.Fatal("group has no decided entity")
		return 0
	}

	t.Run("flip one opinion", func(t *testing.T) {
		c := clone(v)
		j := decided(c.groups[0])
		c.groups[0].Entities[j].Opinion = -c.groups[0].Entities[j].Opinion
		if len(checkProbabilities(c)) == 0 {
			t.Error("probability check passed")
		}
		if renderHash(c) == renderHash(v) {
			t.Error("render check passed")
		}
	})
	t.Run("probability out of range", func(t *testing.T) {
		c := clone(v)
		c.groups[0].Entities[0].Probability = 1.5
		if len(checkProbabilities(c)) == 0 {
			t.Error("probability check passed")
		}
	})
	t.Run("drop one evidence count", func(t *testing.T) {
		c := clone(v)
		c.evidence = c.evidence[1:]
		if len(chk.checkResult(c, docs)) == 0 {
			t.Error("evidence check passed")
		}
	})
	t.Run("document count", func(t *testing.T) {
		if len(chk.checkResult(v, docs+1)) == 0 {
			t.Error("documents check passed")
		}
		c := clone(v)
		c.stats.QuarantinedDocs = 1
		if len(chk.checkResult(c, docs)) == 0 {
			t.Error("quarantine check passed")
		}
	})
	t.Run("entity classified twice", func(t *testing.T) {
		c := clone(v)
		c.groups[0].Entities[1] = c.groups[0].Entities[0]
		if len(chk.checkCoverage(c)) == 0 {
			t.Error("coverage check passed")
		}
	})
	t.Run("group missing", func(t *testing.T) {
		c := clone(v)
		c.groups = c.groups[1:]
		if len(chk.checkCoverage(c)) == 0 {
			t.Error("coverage check passed")
		}
	})
	t.Run("opinions inverted", func(t *testing.T) {
		c := clone(v)
		for i := range c.groups {
			for j := range c.groups[i].Entities {
				e := &c.groups[i].Entities[j]
				e.Opinion, e.Probability = -e.Opinion, 1-e.Probability
			}
		}
		if chk.checkPrecision(c) == nil {
			t.Error("precision check passed")
		}
	})
	t.Run("swap two answers", func(t *testing.T) {
		for _, q := range in.queries {
			got, err := res.Query(q.text)
			if err != nil || len(got) < 2 {
				continue
			}
			if err := checkAnswers(v, q, got); err != nil {
				t.Fatalf("clean answers fail: %v", err)
			}
			got[0], got[1] = got[1], got[0]
			if checkAnswers(v, q, got) == nil {
				t.Error("answer check passed")
			}
			return
		}
		t.Fatal("no query with two answers")
	})
	t.Run("wrong answer to the known-fault query", func(t *testing.T) {
		parseErr := errors.New("no adjective before the type noun")
		for _, q := range in.queries {
			if q.property != "pretty" || q.typ != "celebrity" {
				if isKnownFault(q, parseErr) {
					t.Errorf("%q: parse failure taken as the known fault", q.text)
				}
				continue
			}
			_, err := res.Query(q.text)
			if !isKnownFault(q, err) {
				t.Fatalf("%q: parse failure %v not taken as the known fault", q.text, err)
			}
			if isKnownFault(q, checkAnswers(v, q, nil)) {
				t.Errorf("%q: a wrong answer is taken as the known fault", q.text)
			}
		}
	})
	t.Run("wire entry changed", func(t *testing.T) {
		s := evidence.NewStore()
		s.AddCounts(evidence.Key{Entity: 1, Property: "big"}, evidence.Counts{Pos: 2, Neg: 1})
		if err := checkWireRoundTrip(s); err != nil {
			t.Fatalf("clean round trip fails: %v", err)
		}
		want := s.Snapshot()
		got := append([]evidence.Entry(nil), want...)
		got[0].Pos++
		if sameEntries(want, got) == nil {
			t.Error("wire check passed")
		}
	})
}
