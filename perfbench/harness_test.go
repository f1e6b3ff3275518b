package main

import (
	"encoding/json"
	"errors"
	"os"
	"slices"
	"testing"

	"repro/internal/core"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	samples := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		p    float64
		ok   bool
		want float64
	}{
		{999, 0.99, false, 0},
		{1000, 0.99, true, 990},
		{19, 0.5, false, 0},
		{20, 0.5, true, 10},
		{0, 0.5, false, 0},
	} {
		v, ok := percentile(samples(c.n), c.p)
		if ok != c.ok || v != c.want {
			t.Errorf("percentile(%d samples, %g) = %g, %v; want %g, %v", c.n, c.p, v, ok, c.want, c.ok)
		}
	}
}

func TestMismatchAndErrorEachFailOneOp(t *testing.T) {
	good := []*core.Table{{Title: "t", Rows: [][]string{{"a"}}}}
	bad := []*core.Table{{Title: "t", Rows: [][]string{{"b"}}}}
	outputs := []func() ([]*core.Table, error){
		func() ([]*core.Table, error) { return good, nil },
		func() ([]*core.Table, error) { return bad, nil },
		func() ([]*core.Table, error) { return nil, errors.New("driver failed") },
		func() ([]*core.Table, error) { panic("driver panicked") },
		func() ([]*core.Table, error) { return good, nil },
	}
	var next int
	l := &tableLoop{run: func() ([]*core.Table, error) { next++; return outputs[next-1]() }, perRun: 1}
	want, err := l.once()
	if err != nil {
		t.Fatal(err)
	}
	next = 0
	l.want = want
	var tl tally
	for range outputs {
		l.pass(&tl)
	}
	if tl.attempted != 5 || tl.failed != 3 {
		t.Fatalf("attempted %d failed %d; want 5 and 3 (mismatch, error, panic)", tl.attempted, tl.failed)
	}
}

func TestAllocsPerOpDividesByOps(t *testing.T) {
	// Two popular passes of 120 loads each: ops are loads, not passes.
	tl := &tally{attempted: 240}
	tl.passDone(0.2, 120)
	tl.passDone(0.3, 120)
	m := endToEnd(tl, memDelta{mallocs: 2400, bytes: 24000}, []float64{1}, 100)
	if m["allocs_per_op"] != 10 || m["alloc_bytes_per_op"] != 100 {
		t.Fatalf("allocs_per_op %g, alloc_bytes_per_op %g; want 10 and 100", m["allocs_per_op"], m["alloc_bytes_per_op"])
	}
	if m["table_s"] != 0.25 || m["loads_per_s"] != 500 {
		t.Fatalf("table_s %g, loads_per_s %g; want 0.25 and 500", m["table_s"], m["loads_per_s"])
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %g %g %g; want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestCompareSets(t *testing.T) {
	a := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00}
	shift := func(f float64) []float64 {
		var out []float64
		for _, x := range a {
			out = append(out, x*f)
		}
		return out
	}
	wide := []float64{0.5, 1.5, 0.6, 1.4, 0.7, 1.3, 1.0, 1.0, 0.8, 1.2}
	for _, c := range []struct {
		b    []float64
		want string
	}{
		{shift(1.05), "agree"},
		{shift(1.3), "disagree"},
		{shift(0.7), "disagree"},
		{wide, "unresolved"},
		{nil, "no data"},
	} {
		if got := compareSets(a, c.b, 0.1, true).verdict; got != c.want {
			t.Errorf("compareSets(%v) = %s; want %s", c.b, got, c.want)
		}
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metrics the
// benchmark prints in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var code []string
	for _, w := range workloads {
		code = append(code, w.name)
	}
	if !slices.Equal(names, code) {
		t.Errorf("workloads: BENCHMARK.json %v, code %v", names, code)
	}
	for _, c := range []struct {
		json []metric
		code []metricDef
	}{{spec.EndToEnd, endToEndMetrics}, {spec.PerLayer, perLayerMetrics}} {
		var got []metric
		for _, d := range c.code {
			got = append(got, metric{d.name, d.unit})
		}
		if !slices.Equal(c.json, got) {
			t.Errorf("metrics: BENCHMARK.json %v, code %v", c.json, got)
		}
	}
}
