package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"lapses/internal/core"
)

func TestMedianAndQuartiles(t *testing.T) {
	// Expected values are Python's statistics.median and
	// statistics.quantiles(xs, n=4), the functions the benchmark's
	// spread is checked with.
	cases := []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3.1, 1.2}, 0.725, 2.15, 3.575},
		{[]float64{5, 1, 4}, 1, 4, 5},
		{[]float64{2.5, 9, 1, 7, 3, 8, 4.25}, 2.5, 4.25, 8},
		{[]float64{1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89}, 2, 8, 34},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if m := median(c.xs); !near(m, c.m) || !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("%v: got q1=%v median=%v q3=%v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
	if median(nil) != 0 {
		t.Error("median of nothing should be 0")
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileAndTail(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	if p := percentile(xs, 0.9); p != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", p)
	}
	if p := percentile(xs, 0.5); p != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", p)
	}
	// The p90 of n samples has n - ceil(0.9 n) samples beyond it: ten
	// need a hundred samples, and 99 leave only nine.
	if !tailOK(100, 0.9, 10) || tailOK(99, 0.9, 10) {
		t.Error("tailOK disagrees with the ten-beyond rule at 99/100 samples")
	}
	if n := minSamplesFor(0.9, 10); n != 100 {
		t.Errorf("minSamplesFor(0.9, 10) = %d, want 100", n)
	}
	if n := minSamplesFor(0.5, 10); n != 20 {
		t.Errorf("minSamplesFor(0.5, 10) = %d, want 20", n)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "job", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "http", Start: 1, End: 3},
		{ID: 3, Parent: 1, Name: "http", Start: 2, End: 4},  // overlaps the first
		{ID: 4, Parent: 1, Name: "http", Start: 9, End: 12}, // runs past its parent
	}
	self := selfTimes(spans)
	if !near(self["job"], 10-3-1) {
		t.Errorf("job self time %v, want 6", self["job"])
	}
	if !near(self["http"], 2+2+3) {
		t.Errorf("http self time %v, want 7", self["http"])
	}
	if c := clippedTo(spans, "http", "job"); !near(c, 2+2+1) {
		t.Errorf("http time inside job %v, want 5", c)
	}
}

func TestPollLag(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "job.cold", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "http.submit", Start: 0, End: 1},
		{ID: 3, Parent: 1, Name: "http.status", Start: 1, End: 2},
		{ID: 4, Parent: 1, Name: "http.status", Start: 5, End: 6}, // found the job done after a 3s sleep
		{ID: 5, Parent: 1, Name: "http.results", Start: 6, End: 10},
		{ID: 6, Name: "job.warm", Start: 20, End: 22},
		{ID: 7, Parent: 6, Name: "http.submit", Start: 20, End: 21},
		{ID: 8, Parent: 6, Name: "http.status", Start: 21, End: 21.5}, // done at the first poll
		{ID: 9, Parent: 6, Name: "http.results", Start: 21.5, End: 22},
	}
	if lag := pollLag(spans); !near(lag, 3) {
		t.Errorf("poll lag %v, want 3", lag)
	}
}

// TestFingerprintShardInvariant pins the property kernel-recipe checks on
// every round: the cycle kernel gives bit-identical Results for any shard
// count, so a point's fingerprint does not depend on it.
func TestFingerprintShardInvariant(t *testing.T) {
	c := recipe(7)
	c.Dims = []int{8, 8}
	c.Load = 0.3
	c.Warmup, c.Measure = 100, 600
	var want string
	for _, shards := range []int{1, 2, 4} {
		c.Shards = shards
		r, err := core.Run(c)
		if err != nil {
			t.Fatal(err)
		}
		got := resultFingerprint(r)
		if want == "" {
			want = got
		} else if got != want {
			t.Errorf("shards=%d fingerprint %s, want %s", shards, short(got), short(want))
		}
	}
	c.Shards = 1
	c.Seed++
	r, err := core.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if resultFingerprint(r) == want {
		t.Error("a different traffic seed gave the same fingerprint")
	}
}

// TestGridsAreValid checks every config the workloads submit at both
// pinned seeds, and that a seed changes inputs but not the grid's shape.
func TestGridsAreValid(t *testing.T) {
	for _, seed := range []int64{1, 97} {
		sg, err := sweepGrid(seed)
		if err != nil {
			t.Fatal(err)
		}
		vg, err := serveGrid(seed)
		if err != nil {
			t.Fatal(err)
		}
		all := append(append(kernelGrid(seed), sg...), vg...)
		all = append(all, bisectSpec(seed).At(0.5))
		for _, c := range all {
			if err := c.Validate(); err != nil {
				t.Errorf("seed %d: %s: %v", seed, c.Key(), err)
			}
		}
		if len(sg) != len(design)+5 || len(vg) != len(design) {
			t.Errorf("seed %d: grid sizes %d and %d do not follow the design", seed, len(sg), len(vg))
		}
	}
}

// TestMetricsMatchManifest keeps the metric tables here and BENCHMARK.json
// in step: same names, same units, same order.
func TestMetricsMatchManifest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd)
	check("per_layer", m.PerLayer, perLayer)
	if len(m.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(m.Workloads), len(workloads))
	}
	for _, w := range m.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not in the program", w.Name)
		}
	}
}

// TestPinsCoverWorkloads checks the shipped pins name every workload at the
// default seed and the held-out one.
func TestPinsCoverWorkloads(t *testing.T) {
	p, err := loadPins("")
	if err != nil {
		t.Fatal(err)
	}
	for name := range workloads {
		for _, seed := range []int64{1, 97} {
			if fp, ok := p.lookup(name, seed); !ok || len(fp) != 64 {
				t.Errorf("%s seed %d: no pinned fingerprint", name, seed)
			}
		}
	}
}
