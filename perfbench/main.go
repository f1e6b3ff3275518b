// Command perfbench is the repository's benchmark. It drives the
// testbed only through its public entry points: the core table drivers
// and Testbed.RunOnceWith for the end-to-end numbers, and a separate
// traced run for the per-layer numbers. Every op's output is checked
// against a reference. See README.md for the workloads and metrics.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload sweep --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh agree runs-a.jsonl runs-b.jsonl
//
// Each run prints a record line (metrics plus the environment) and, as
// its last line, the result object {correct, attempted, failed, metrics}.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
)

// gitRev is stamped by run.sh.
var gitRev = "unknown"

//go:embed reference.json
var referenceJSON []byte

// setupRepeats is how many times an untraced run sets its workload up;
// setup_s is the median.
const setupRepeats = 3

type metricDef struct{ name, unit string }

// endToEndMetrics are the untraced run's metrics, in BENCHMARK.json
// order. ok_frac is 1 - error_frac, so that no metric reads 0.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"table_s", "s"},
	{"loads_per_s", "1/s"},
	{"allocs_per_op", "count"},
	{"alloc_bytes_per_op", "B"},
	{"max_rss_mb", "MB"},
	{"ok_frac", "frac"},
}

// env is recorded with every run.
type env struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitRev     string `json:"git_rev"`
	Seed       int64  `json:"seed"`
	Workers    int    `json:"workers"`
}

// record is one run's full account, printed before the result line.
type record struct {
	Workload  string             `json:"workload"`
	Trace     int                `json:"trace"`
	Seconds   float64            `json:"seconds"`
	Env       env                `json:"env"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// Detail holds figures outside BENCHMARK.json: sample counts and
	// popular's per-load percentiles.
	Detail map[string]float64 `json:"detail"`
	Errors []string           `json:"errors,omitempty"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "agree" {
		os.Exit(agreeMain(os.Args[2:], os.Stdout))
	}
	if err := benchMain(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func benchMain(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: sweep, popular, population or faults")
	seed := fs.Int64("seed", defaultSeed, "corpus seed")
	seconds := fs.Float64("seconds", 10, "seconds to measure")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	writeRef := fs.Bool("write-reference", false, "print reference.json for the default seed and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *writeRef {
		return writeReference(stdout)
	}
	refs := map[string][]string{}
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		return fmt.Errorf("reference.json: %w", err)
	}
	w, err := workloadByName(*name)
	if err != nil {
		return err
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	var ref []string
	if *seed == defaultSeed {
		if ref = refs[w.name]; ref == nil {
			return fmt.Errorf("reference.json has no digests for %s", w.name)
		}
	}
	rec := &record{Workload: w.name, Trace: *trace, Seconds: *seconds, Env: env{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GitRev: gitRev, Seed: *seed, Workers: 1,
	}}
	defs := endToEndMetrics
	switch *trace {
	case 0:
		err = untracedRun(rec, w, *seed, ref)
	case 1:
		defs = perLayerMetrics
		err = tracedRun(rec, w, *seed, ref)
	default:
		err = fmt.Errorf("-trace must be 0 or 1")
	}
	if err != nil {
		return err
	}
	return report(stdout, rec, defs)
}

// untracedRun sets the workload up setupRepeats times, then measures
// the last set-up state for rec.Seconds.
func untracedRun(rec *record, w workload, seed int64, ref []string) error {
	core.ResetForkStats()
	var setups []float64
	var lp loop
	for range setupRepeats {
		start := time.Now()
		l, err := w.setup(seed, ref)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
		lp = l
	}
	t, mem := measure(lp, rec.Seconds)
	rss, err := maxRSSMB()
	if err != nil {
		return err
	}
	rec.Metrics = endToEnd(t, mem, setups, rss)
	rec.Detail = loadDetail(t)
	rec.Attempted, rec.Failed = t.attempted, t.failed
	rec.Errors = refErrors(lp)
	return nil
}

// measure runs passes of lp for at least secs (and at least one pass),
// the closed loop of one client every workload uses.
func measure(lp loop, secs float64) (*tally, memDelta) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t := &tally{}
	start := time.Now()
	for t.attempted == 0 || time.Since(start).Seconds() < secs {
		lp.pass(t)
	}
	runtime.ReadMemStats(&after)
	return t, memDelta{mallocs: after.Mallocs - before.Mallocs, bytes: after.TotalAlloc - before.TotalAlloc}
}

// loadDetail is the sample counts behind the medians, and on popular
// the per-load median and each tail percentile with at least ten loads
// beyond it.
func loadDetail(t *tally) map[string]float64 {
	d := map[string]float64{"passes": float64(len(t.passSec)), "ops": float64(t.attempted)}
	if len(t.loadMs) == 0 {
		return d
	}
	d["load_ms_p50"] = median(t.loadMs)
	for _, p := range []struct {
		q    float64
		name string
	}{{0.999, "load_ms_p99.9"}, {0.99, "load_ms_p99"}, {0.9, "load_ms_p90"}} {
		if v, ok := percentile(t.loadMs, p.q); ok {
			d[p.name] = v
		}
	}
	return d
}

func refErrors(lp loop) []string {
	if err := lp.refErr(); err != nil {
		return []string{err.Error()}
	}
	return nil
}

// report prints rec as a record line, then the result object.
func report(w io.Writer, rec *record, defs []metricDef) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range defs {
		v, ok := rec.Metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s has no finite value (%v)", d.name, v)
		}
		metrics[d.name] = value{v, d.unit}
	}
	if rec.Attempted < 1 {
		return errors.New("no op attempted")
	}
	line, err := json.Marshal(struct {
		Record *record `json:"record"`
	}{rec})
	if err != nil {
		return err
	}
	result, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Failed == 0, rec.Attempted, rec.Failed, metrics})
	if err != nil {
		return err
	}
	for _, e := range rec.Errors {
		fmt.Fprintln(os.Stderr, "perfbench:", e)
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", line, result)
	return err
}

// writeReference prints reference.json: every workload's warm-up
// digests at the default seed.
func writeReference(w io.Writer) error {
	refs := map[string][]string{}
	for _, wl := range workloads {
		core.ResetForkStats()
		lp, err := wl.setup(defaultSeed, nil)
		if err != nil {
			return err
		}
		refs[wl.name] = lp.digests()
	}
	b, err := json.MarshalIndent(refs, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
