package repro

// One benchmark per table/figure of the paper's evaluation, plus
// ablations for the testbed's modelling choices. Each benchmark
// regenerates its experiment at a reduced-but-faithful scale (full scale
// via cmd/pushbench -scale paper) and reports domain-specific metrics
// through b.ReportMetric.
//
// Run:  go test -bench=. -benchmem

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/h2"
	"repro/internal/netem"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/strategy"
)

// mustTable adapts the (table, error) experiment drivers for benchmark
// loops: any driver error aborts the benchmark. Curried so
// a multi-value driver call can be forwarded directly.
func mustTable(b *testing.B) func(*core.Table, error) *core.Table {
	return func(tab *core.Table, err error) *core.Table {
		if err != nil {
			b.Fatal(err)
		}
		return tab
	}
}

func benchScale() core.ExperimentScale {
	// Jobs: 0 fans the (site, strategy, run) tuples across GOMAXPROCS
	// workers; the tables are byte-identical to a Jobs: 1 run.
	return core.ExperimentScale{Sites: 8, Runs: 3, Seed: 1, Jobs: 0}
}

func pctCell(b *testing.B, tab *core.Table, row, col int) float64 {
	b.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(tab.Rows[row][col], "%"), 64)
	if err != nil {
		b.Fatalf("cell %d,%d = %q", row, col, tab.Rows[row][col])
	}
	return v
}

func numCell(b *testing.B, tab *core.Table, row, col int) float64 {
	b.Helper()
	v, err := strconv.ParseFloat(tab.Rows[row][col], 64)
	if err != nil {
		b.Fatalf("cell %d,%d = %q", row, col, tab.Rows[row][col])
	}
	return v
}

// BenchmarkFig1Adoption regenerates the adoption series (Fig. 1).
func BenchmarkFig1Adoption(b *testing.B) {
	var tab *core.Table
	for i := 0; i < b.N; i++ {
		tab = core.Fig1Adoption(100_000, 1)
	}
	b.ReportMetric(numCell(b, tab, 0, 2), "h2_month1")
	b.ReportMetric(numCell(b, tab, 11, 2), "h2_month12")
	b.ReportMetric(numCell(b, tab, 0, 3), "push_month1")
	b.ReportMetric(numCell(b, tab, 11, 3), "push_month12")
}

// BenchmarkFig2aVariability contrasts testbed vs Internet variability
// (Fig. 2a).
func BenchmarkFig2aVariability(b *testing.B) {
	var tab *core.Table
	for i := 0; i < b.N; i++ {
		tab = mustTable(b)(core.Fig2aVariability(benchScale()))
	}
	// Row 1 = no push (tb), row 3 = no push (Inet).
	b.ReportMetric(pctCell(b, tab, 1, 2), "tb_sites_sigma_lt100ms_pct")
	b.ReportMetric(pctCell(b, tab, 3, 2), "inet_sites_sigma_lt100ms_pct")
}

// BenchmarkFig2bPushVsNoPush regenerates the testbed-validation deltas
// (Fig. 2b).
func BenchmarkFig2bPushVsNoPush(b *testing.B) {
	var tab *core.Table
	for i := 0; i < b.N; i++ {
		tab = mustTable(b)(core.Fig2bPushVsNoPush(benchScale()))
	}
	b.ReportMetric(pctCell(b, tab, 0, 1), "plt_improved_pct")
	b.ReportMetric(pctCell(b, tab, 1, 1), "si_improved_pct")
}

// BenchmarkPushableObjects regenerates the Sec. 4.2 pushable statistic.
func BenchmarkPushableObjects(b *testing.B) {
	var tab *core.Table
	sc := benchScale()
	sc.Sites = 60
	for i := 0; i < b.N; i++ {
		tab = core.PushableObjects(sc)
	}
	b.ReportMetric(pctCell(b, tab, 0, 2), "top_lt20pct_pushable_pct")
	b.ReportMetric(pctCell(b, tab, 1, 2), "random_lt20pct_pushable_pct")
}

// BenchmarkFig3aPushAll regenerates Fig. 3a (push all vs no push on both
// site sets).
func BenchmarkFig3aPushAll(b *testing.B) {
	var tab *core.Table
	for i := 0; i < b.N; i++ {
		tab = mustTable(b)(core.Fig3aPushAll(benchScale()))
	}
	b.ReportMetric(pctCell(b, tab, 0, 1), "top_si_improved_pct")
	b.ReportMetric(pctCell(b, tab, 1, 1), "random_si_improved_pct")
}

// BenchmarkFig3bPushAmount regenerates the push-amount sweep (Fig. 3b).
func BenchmarkFig3bPushAmount(b *testing.B) {
	var tab *core.Table
	for i := 0; i < b.N; i++ {
		tab = mustTable(b)(core.Fig3bPushAmount(benchScale()))
	}
	for i, n := range []string{"n1", "n5", "n10", "n15", "all"} {
		b.ReportMetric(numCell(b, tab, i, 3), "median_dplt_ms_"+n)
	}
}

// BenchmarkPushByType regenerates the object-type analysis (Sec. 4.2.1).
func BenchmarkPushByType(b *testing.B) {
	var tab *core.Table
	for i := 0; i < b.N; i++ {
		tab = mustTable(b)(core.PushByTypeAnalysis(benchScale()))
	}
	b.ReportMetric(pctCell(b, tab, 2, 2), "images_si_worse_pct")
	b.ReportMetric(pctCell(b, tab, len(tab.Rows)-1, 1), "best_type_si_improved_pct")
}

// BenchmarkFig4Synthetic regenerates the synthetic-site custom-strategy
// comparison (Fig. 4).
func BenchmarkFig4Synthetic(b *testing.B) {
	var tab *core.Table
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		tab = mustTable(b)(core.Fig4Synthetic(sc))
	}
	// s1: custom pushes far fewer KB than push all for similar effect.
	var s1All, s1Crit float64
	for _, row := range tab.Rows {
		if row[0] == "s1" && row[1] == "push all" {
			s1All, _ = strconv.ParseFloat(row[5], 64)
		}
		if row[0] == "s1" && row[1] == "push critical" {
			s1Crit, _ = strconv.ParseFloat(row[5], 64)
		}
	}
	b.ReportMetric(s1All, "s1_pushall_kb")
	b.ReportMetric(s1Crit, "s1_pushcritical_kb")
}

// BenchmarkFig5Interleaving regenerates the motivating example
// (Fig. 5b): SpeedIndex vs HTML size for the three configurations.
func BenchmarkFig5Interleaving(b *testing.B) {
	var tab *core.Table
	for i := 0; i < b.N; i++ {
		tab = mustTable(b)(core.Fig5Interleaving(core.ExperimentScale{Runs: 3, Seed: 1}))
	}
	b.ReportMetric(numCell(b, tab, 0, 1), "nopush_si_ms_10kb")
	b.ReportMetric(numCell(b, tab, 8, 1), "nopush_si_ms_90kb")
	b.ReportMetric(numCell(b, tab, 0, 3), "interleave_si_ms_10kb")
	b.ReportMetric(numCell(b, tab, 8, 3), "interleave_si_ms_90kb")
}

// BenchmarkFig6Interleaving regenerates the popular-site strategy
// comparison (Fig. 6) on the paper's showcase sites.
func BenchmarkFig6Interleaving(b *testing.B) {
	var tab *core.Table
	sc := core.ExperimentScale{Sites: 1, Runs: 3, Seed: 1}
	for i := 0; i < b.N; i++ {
		tab = mustTable(b)(core.Fig6Popular([]string{"w1", "w2", "w16", "w7", "w9", "w10"}, sc))
	}
	report := func(site, strat, metric string) {
		for _, row := range tab.Rows {
			if row[0] == site && row[1] == strat {
				v, _ := strconv.ParseFloat(strings.TrimSuffix(row[2], "%"), 64)
				b.ReportMetric(v, metric)
			}
		}
	}
	report("w1", "push critical optimized", "w1_crit_opt_dsi_pct")
	report("w2", "push critical optimized", "w2_crit_opt_dsi_pct")
	report("w16", "push critical optimized", "w16_crit_opt_dsi_pct")
	report("w7", "push critical optimized", "w7_crit_opt_dsi_pct")
}

// BenchmarkScenarioSweepNoFork is the ablation twin of
// BenchmarkScenarioSweep with fork-at-divergence checkpoint reuse
// disabled: the gap between the two is the measured value of replaying
// the shared prefix from a snapshot instead of re-simulating it.
func BenchmarkScenarioSweepNoFork(b *testing.B) {
	sc := core.ExperimentScale{Sites: 2, Runs: 3, Seed: 1, Jobs: 0, NoFork: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.ScenarioSweepNames([]string{"dsl", "satellite"}, sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScenarioSweep regenerates the cross-scenario strategy
// comparison on two contrasting links (the paper's DSL and satellite).
func BenchmarkScenarioSweep(b *testing.B) {
	var tabs []*core.Table
	sc := core.ExperimentScale{Sites: 2, Runs: 3, Seed: 1, Jobs: 0}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		tabs, err = core.ScenarioSweepNames([]string{"dsl", "satellite"}, sc)
		if err != nil {
			b.Fatal(err)
		}
	}
	// Median dSI of "push critical optimized" per scenario: the sweep's
	// headline — how much more push matters at a 600 ms RTT.
	for i, name := range []string{"dsl", "satellite"} {
		found := false
		for r, row := range tabs[i].Rows {
			if row[0] == "push critical optimized" {
				b.ReportMetric(numCell(b, tabs[i], r, 3), name+"_crit_opt_median_dsi_ms")
				found = true
			}
		}
		if !found {
			b.Fatalf("push critical optimized row missing from %s table", name)
		}
	}
}

// --- ablations of the testbed's modelling choices ---

// BenchmarkAblationPreloadScanner measures the preload scanner's effect
// on the s8-style early-reference page.
func BenchmarkAblationPreloadScanner(b *testing.B) {
	site := corpus.SyntheticSites()[7] // s8
	var on, off time.Duration
	for i := 0; i < b.N; i++ {
		tb := core.NewTestbed()
		tb.Runs = 3
		evOn := tb.Evaluate(site, replay.NoPush(), "on")
		tb.Browser.PreloadScanner = false
		evOff := tb.Evaluate(site, replay.NoPush(), "off")
		on, off = evOn.MedianPLT, evOff.MedianPLT
	}
	b.ReportMetric(float64(on)/1e6, "plt_ms_scanner_on")
	b.ReportMetric(float64(off)/1e6, "plt_ms_scanner_off")
}

// BenchmarkAblationPushAtRoot compares the h2o default (push stream as
// child of its parent, starved until the parent finishes) with
// root-attached push streams (compete with the parent immediately).
func BenchmarkAblationPushAtRoot(b *testing.B) {
	html := make([]byte, 150*1024)
	css := make([]byte, 20*1024)
	// Direct h2-level measurement: time until the pushed CSS completes.
	run := func(atRoot bool) time.Duration {
		var cssDone time.Duration
		s := sim.New(9)
		n := netem.New(s, netem.DSL())
		n.Dial(func(c *netem.Conn) {
			srv := h2.NewServer(h2.DefaultSettings(), func(sw *h2.ServerStream, req h2.Request) {
				psw := sw.Push(h2.Request{Method: "GET", Scheme: "https", Authority: "a", Path: "/s.css"})
				sw.Respond(200, "text/html", html)
				psw.Respond(200, "text/css", css)
			})
			srv.Core.PushAtRoot = atRoot
			clSettings := h2.DefaultSettings()
			clSettings.InitialWindowSize = 6 * 1024 * 1024
			cl := h2.NewClient(clSettings)
			h2.AttachSim(srv.Core, c.ServerEnd())
			h2.AttachSim(cl.Core, c.ClientEnd())
			cl.OnPush = func(parent, promised *h2.ClientStream) bool {
				promised.OnComplete = func(int) { cssDone = s.Now() }
				return true
			}
			cl.Request(h2.Request{Method: "GET", Scheme: "https", Authority: "a", Path: "/"},
				h2.RequestOpts{Priority: &h2.PriorityParam{Weight: 255}})
		})
		s.Run()
		return cssDone
	}
	var child, root time.Duration
	for i := 0; i < b.N; i++ {
		child = run(false)
		root = run(true)
	}
	b.ReportMetric(float64(child)/1e6, "css_done_ms_push_as_child")
	b.ReportMetric(float64(root)/1e6, "css_done_ms_push_at_root")
}

// BenchmarkAblationInitialCwnd sweeps the TCP initial window.
func BenchmarkAblationInitialCwnd(b *testing.B) {
	site := corpus.SyntheticSites()[0] // s1
	res := map[int]time.Duration{}
	for i := 0; i < b.N; i++ {
		for _, iw := range []int{4, 10, 32} {
			tb := core.NewTestbed()
			tb.Runs = 3
			tb.Scenario.Profile.InitialCwnd = iw
			ev := tb.Evaluate(site, replay.NoPush(), "iw")
			res[iw] = ev.MedianPLT
		}
	}
	for _, iw := range []int{4, 10, 32} {
		b.ReportMetric(float64(res[iw])/1e6, "plt_ms_iw"+strconv.Itoa(iw))
	}
}

// BenchmarkAblationInterleaveOffset sweeps the hard-switch offset.
func BenchmarkAblationInterleaveOffset(b *testing.B) {
	bld := corpus.NewPage("offset.test")
	bld.CSS("/s.css", corpus.SimpleCSS([]string{"hero"}, 100))
	bld.Div("hero", 400)
	bld.Text(1000)
	bld.PadHTML(120 * 1024)
	site := bld.Build("offset-sweep")
	base := site.Base.String()
	css := "https://offset.test/s.css"
	res := map[int]time.Duration{}
	for i := 0; i < b.N; i++ {
		for _, off := range []int{1024, 4096, 16384, 65536} {
			tb := core.NewTestbed()
			tb.Runs = 3
			plan := replay.PushList(base, css).WithInterleave(base, replay.InterleaveSpec{
				OffsetBytes: off, Critical: []string{css},
			})
			ev := tb.Evaluate(site, plan, "offset")
			res[off] = ev.MedianSI
		}
	}
	for _, off := range []int{1024, 4096, 16384, 65536} {
		b.ReportMetric(float64(res[off])/1e6, "si_ms_offset"+strconv.Itoa(off))
	}
}

// BenchmarkEngineSequential and BenchmarkEngineParallel time the same
// experiment through the worker-pool engine with 1 worker vs GOMAXPROCS
// workers; the resulting tables are byte-identical, only wall clock
// differs (on multi-core hardware).
func BenchmarkEngineSequential(b *testing.B) {
	sc := benchScale()
	sc.Jobs = 1
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mustTable(b)(core.Fig2bPushVsNoPush(sc))
	}
}

func BenchmarkEngineParallel(b *testing.B) {
	sc := benchScale()
	sc.Jobs = 0 // GOMAXPROCS
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mustTable(b)(core.Fig2bPushVsNoPush(sc))
	}
}

// BenchmarkEngineParallelJobs sweeps the worker-pool size so the
// engine's scaling curve is a first-class benchmark on any hardware:
// on a >=4-core machine Jobs=4 must beat Jobs=1 on wall clock; on a
// single-CPU machine the curve is flat (scheduling overhead only),
// which is itself the measurement. Tables are byte-identical across
// every cell of the sweep.
func BenchmarkEngineParallelJobs(b *testing.B) {
	for _, jobs := range []int{1, 2, 4, 8} {
		b.Run("Jobs="+strconv.Itoa(jobs), func(b *testing.B) {
			sc := benchScale()
			sc.Jobs = jobs
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mustTable(b)(core.Fig2bPushVsNoPush(sc))
			}
		})
	}
}

// BenchmarkPopulationSweep sweeps the client count of the population
// engine on the household preset. The headline metric is bytes/op
// growing sub-linearly in clients: the per-load results stream into
// O(1)-memory sketch cells, so aggregation memory is independent of
// clients x runs, and what remains is pooled per-client simulation
// state (slots, connections) amortized across runs.
func BenchmarkPopulationSweep(b *testing.B) {
	for _, clients := range []int{1, 4, 16} {
		b.Run("Clients="+strconv.Itoa(clients), func(b *testing.B) {
			sc := core.ExperimentScale{Sites: 2, Runs: 2, Seed: 1, Jobs: 0}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.PopulationSweepNames([]string{"household"}, []int{clients}, sc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPageLoad measures raw single-load simulation throughput.
func BenchmarkPageLoad(b *testing.B) {
	site := corpus.Generate(corpus.RandomProfile(), 0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb := core.NewTestbed()
		r := tb.RunOnce(site, replay.NoPush(), i)
		if !r.Completed {
			b.Fatal("incomplete load")
		}
	}
}

// BenchmarkStrategyCompilation measures the analysis pipeline (layout,
// critical CSS extraction, rewrite).
func BenchmarkStrategyCompilation(b *testing.B) {
	site := corpus.PopularSite("w1")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, plan := strategy.PushCriticalOptimized{}.Apply(site, nil)
		if len(plan.Push) == 0 {
			b.Fatal("no plan")
		}
	}
}

// BenchmarkPageLoadWarm measures steady-state single-load throughput on
// a reused RunContext: the prepare-once/replay-many hot path the
// experiment drivers run on. The dense-ID refactor pins this at well
// under 900 allocs/op (see TestRunContextReuseAllocBudget).
func BenchmarkPageLoadWarm(b *testing.B) {
	site := corpus.Generate(corpus.RandomProfile(), 0, 1)
	tb := core.NewTestbed()
	plan := replay.NoPush()
	rc := core.NewRunContext()
	if r := tb.RunOnceWith(rc, site, plan, 0); !r.Completed {
		b.Fatal("incomplete warm-up load")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := tb.RunOnceWith(rc, site, plan, 1); !r.Completed {
			b.Fatal("incomplete load")
		}
	}
}
