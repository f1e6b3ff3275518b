package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// benchmarkSpec is the part of BENCHMARK.json the agreement report uses.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// agreeMain compares two sets of untraced runs of one commit (files of
// benchmark output, record lines included) and prints, for each (metric,
// workload), agree, disagree or unresolved against BENCHMARK.json's
// bounds. It exits 1 when any pair disagrees or has no data.
func agreeMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("agree", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench agree [-spec BENCHMARK.json] runs-a runs-b")
		return 2
	}
	var spec benchmarkSpec
	b, err := os.ReadFile(*specPath)
	if err == nil {
		err = json.Unmarshal(b, &spec)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench agree:", err)
		return 2
	}
	var sets [2]map[string]map[string][]float64
	for i, path := range fs.Args() {
		if sets[i], err = readRecords(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench agree:", err)
			return 2
		}
	}
	fmt.Fprintf(stdout, "%-11s %-19s %4s %4s %12s %12s %8s %8s %8s  %s\n",
		"workload", "metric", "n_a", "n_b", "median_a", "median_b", "change", "spread", "bound", "verdict")
	code := 0
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			a, b := sets[0][w.Name][m.Name], sets[1][w.Name][m.Name]
			v := compareSets(a, b, m.Bound, m.Name != "setup_s")
			if v.verdict != "agree" && v.verdict != "unresolved" {
				code = 1
			}
			fmt.Fprintf(stdout, "%-11s %-19s %4d %4d %12.6g %12.6g %+8.3f %8.3f %8.3f  %s\n",
				w.Name, m.Name, len(a), len(b), v.medA, v.medB, v.change, v.spread, m.Bound, v.verdict)
		}
	}
	return code
}

type comparison struct {
	medA, medB, change, spread float64
	verdict                    string
}

// compareSets judges two samples of one metric. The spread is the
// larger interquartile range as a share of its median; when it exceeds
// the bound (and checkSpread is set) the pair is unresolved. Otherwise
// the medians agree when they differ by at most bound of the first.
func compareSets(a, b []float64, bound float64, checkSpread bool) comparison {
	if len(a) < 2 || len(b) < 2 {
		return comparison{verdict: "no data"}
	}
	qa1, ma, qa3 := quartiles(a)
	qb1, mb, qb3 := quartiles(b)
	c := comparison{medA: ma, medB: mb, change: (mb - ma) / ma}
	c.spread = math.Max((qa3-qa1)/ma, (qb3-qb1)/mb)
	switch {
	case checkSpread && c.spread > bound:
		c.verdict = "unresolved"
	case math.Abs(c.change) <= bound:
		c.verdict = "agree"
	default:
		c.verdict = "disagree"
	}
	return c
}

// readRecords collects the untraced record lines of one output file by
// workload and metric.
func readRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if !strings.HasPrefix(sc.Text(), `{"record":`) {
			continue
		}
		var line struct{ Record record }
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		r := line.Record
		if r.Trace != 0 {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for k, v := range r.Metrics {
			out[r.Workload][k] = append(out[r.Workload][k], v)
		}
	}
	return out, sc.Err()
}
