package main

import (
	"math"
	"os"
	"testing"
)

// TestFoldTraces pins the folding rules on a fixed `go tool pprof
// -traces` text: the innermost repository frame takes the sample (so
// memmove, malloc and inlined frames land on their caller's layer), GC
// work goes to runtime.gc, the benchmark's own frames and unlisted
// packages to other, and the shares sum to 1.
func TestFoldTraces(t *testing.T) {
	f, err := os.Open("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := foldTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"h2.cpu_share":          0.30,
		"hpack.cpu_share":       0.20,
		"netem.cpu_share":       0.10,
		"sim.cpu_share":         0.10,
		"core.cpu_share":        0,
		"runtime.gc_share":      0.20,
		"other.cpu_share":       0.10,
		"h2.take_memmove_share": 0.30,
		"hpack.huffman_share":   0.20,
	}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-9 {
			t.Errorf("%s = %g; want %g", k, got[k], v)
		}
	}
	sum := got["runtime.gc_share"] + got["other.cpu_share"]
	for _, l := range profileLayers {
		sum += got[l+".cpu_share"]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %g; want 1", sum)
	}
	if len(got) != len(profileLayers)+4 {
		t.Errorf("fold reported %d metrics; want %d", len(got), len(profileLayers)+4)
	}
}
