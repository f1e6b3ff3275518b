package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"slices"
	"time"

	"repro/internal/browser"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/replay"
	"repro/internal/scenario"
	"repro/internal/strategy"
)

const (
	// defaultSeed is the seed reference.json holds digests for.
	defaultSeed = 1
	// popularRunCycle is how many run indices popular passes cycle
	// through: the warm-up runs each once and later passes are checked
	// load by load against it.
	popularRunCycle = 4
	// traceRuns is the dependency-tracing load count per site, the
	// table drivers' min(5, runs).
	traceRuns = 5
)

// A loop is one set-up workload. pass runs one table (on popular, one
// sweep over its (site, strategy) grid) and records each op into t.
// digests are the warm-up's output digests, the form reference.json
// stores; refErr reports a warm-up that did not match the reference,
// which fails every op.
type loop interface {
	pass(t *tally)
	digests() []string
	refErr() error
}

// workload is one named benchmark workload.
type workload struct {
	name string
	// setup builds the workload's state from the corpus seed and runs
	// its warm-up op, whose outputs every later op must reproduce. With
	// a non-nil ref the warm-up must also match ref's digests.
	setup func(seed int64, ref []string) (loop, error)
	// inputs builds what the traced run's layer passes consume: the
	// workload's sites and the scenarios its single loads run under.
	inputs func(seed int64) ([]*replay.Site, []scenario.Scenario)
}

// Table workload sizes. Op time follows the corpus, and site costs are
// heavy-tailed, so each op covers many sites at few runs: that keeps
// the spread across corpus seeds small at one to three seconds per op.
// The sweep keeps two runs, the fewest at which the fork cache hits.
func sweepScale(seed int64) core.ExperimentScale {
	return core.ExperimentScale{Sites: 96, Runs: 2, Seed: seed, Jobs: 1}
}

func faultsScale(seed int64) core.ExperimentScale {
	return core.ExperimentScale{Sites: 96, Runs: 1, Seed: seed, Jobs: 1}
}

const (
	// populationClients is the client count of every population run.
	populationClients = 16
	// populationCorpora is how many population tables one op renders,
	// each on its own 16-site corpus. A population run loads 16
	// consecutive sites of one corpus, so more runs on one corpus
	// would add few new sites; more corpora add sixteen each.
	populationCorpora = 12
)

// populationScale is the scale of corpus k of an op.
func populationScale(seed int64, k int) core.ExperimentScale {
	return core.ExperimentScale{Sites: populationClients, Runs: 1, Seed: seed*populationCorpora + int64(k), Jobs: 1}
}

func populationTables(seed int64) ([]*core.Table, error) {
	var all []*core.Table
	for k := range populationCorpora {
		ts, err := core.PopulationSweepNames([]string{"household"}, []int{populationClients}, populationScale(seed, k))
		if err != nil {
			return nil, err
		}
		all = append(all, ts...)
	}
	return all, nil
}

var workloads = []workload{
	{
		name: "sweep",
		setup: tableSetup("sweep", 1, func(seed int64) ([]*core.Table, error) {
			return core.ScenarioSweepNames([]string{"dsl", "satellite"}, sweepScale(seed))
		}),
		inputs: func(seed int64) ([]*replay.Site, []scenario.Scenario) {
			return randomSites(sweepScale(seed)), []scenario.Scenario{scenario.DSL(), scenario.Satellite()}
		},
	},
	{
		name:  "popular",
		setup: popularSetup,
		inputs: func(int64) ([]*replay.Site, []scenario.Scenario) {
			return corpus.PopularSites(), []scenario.Scenario{scenario.DSL()}
		},
	},
	{
		name:  "population",
		setup: tableSetup("population", populationClients, populationTables),
		// Single loads run on DSL, the household preset's shared link,
		// over the op's first corpus.
		inputs: func(seed int64) ([]*replay.Site, []scenario.Scenario) {
			return randomSites(populationScale(seed, 0)), []scenario.Scenario{scenario.DSL()}
		},
	},
	{
		name: "faults",
		setup: tableSetup("faults", 1, func(seed int64) ([]*core.Table, error) {
			return core.FaultSweepNames([]string{"dsl"}, faultsScale(seed))
		}),
		// Single loads run fault-free: the assembled stack has no
		// injector, so the error paths show only in the profile.
		inputs: func(seed int64) ([]*replay.Site, []scenario.Scenario) {
			return randomSites(faultsScale(seed)), []scenario.Scenario{scenario.DSL()}
		},
	},
}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// randomSites is the random-profile corpus the table drivers build
// internally for scale.
func randomSites(scale core.ExperimentScale) []*replay.Site {
	return corpus.GenerateSet(corpus.RandomProfile(), scale.Sites, scale.Seed)
}

// engineRuns counts the runs the engine executed: every run of a
// worker context, and every population run, lands in exactly one
// fork counter.
func engineRuns() int64 {
	f := core.ReadForkStats()
	return f.Prefixes + f.Hits + f.Fallbacks + f.Cold + f.Bypassed
}

// tableLoop times one table driver call per op.
type tableLoop struct {
	run      func() ([]*core.Table, error)
	perRun   int64  // page loads per engine run
	want     string // reference digest
	mismatch error  // warm-up differs from the reference
}

func tableSetup(name string, perRun int64, run func(int64) ([]*core.Table, error)) func(int64, []string) (loop, error) {
	return func(seed int64, ref []string) (loop, error) {
		l := &tableLoop{run: func() ([]*core.Table, error) { return run(seed) }, perRun: perRun}
		got, err := l.once()
		if err != nil {
			return nil, fmt.Errorf("%s warm-up: %w", name, err)
		}
		l.want = got
		if ref != nil && (len(ref) != 1 || ref[0] != got) {
			l.mismatch = fmt.Errorf("%s: digest %s, reference %q", name, got, ref)
		}
		return l, nil
	}
}

func (l *tableLoop) digests() []string { return []string{l.want} }

func (l *tableLoop) refErr() error { return l.mismatch }

func (l *tableLoop) pass(t *tally) {
	runs := engineRuns()
	start := time.Now()
	got, err := l.once()
	t.passDone(time.Since(start).Seconds(), (engineRuns()-runs)*l.perRun)
	t.op(err, l.mismatch == nil && got == l.want)
}

// once runs the driver and digests its rendered tables.
func (l *tableLoop) once() (digest string, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	tables, err := l.run()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	for _, t := range tables {
		h.Write([]byte(t.String()))
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// popularLoad is one (site, strategy) cell of the popular grid, applied
// once at set-up.
type popularLoad struct {
	name string
	tb   *core.Testbed
	site *replay.Site
	plan replay.Plan
}

// loadOutcome is what the output check compares per load.
type loadOutcome struct {
	plt, si time.Duration
	outcome browser.LoadOutcome
	pushed  int64
}

// popularLoop runs the w1-w20 x PopularStrategies grid on DSL, one
// timed RunOnceWith per op on one RunContext, advancing the run index
// each pass.
type popularLoop struct {
	rc       *core.RunContext
	loads    []popularLoad
	want     [popularRunCycle][]loadOutcome
	mismatch error
	next     int
}

// pushTestbeds returns testbeds on sc with push enabled and disabled,
// matching what Testbed.EvaluateStrategy runs each strategy on.
func pushTestbeds(sc scenario.Scenario, seed int64) (push, noPush *core.Testbed, err error) {
	if push, err = core.NewTestbedFor(sc); err != nil {
		return nil, nil, err
	}
	if noPush, err = core.NewTestbedFor(sc); err != nil {
		return nil, nil, err
	}
	for _, tb := range []*core.Testbed{push, noPush} {
		tb.Seed, tb.Jobs = seed, 1
	}
	noPush.Browser.EnablePush = false
	return push, noPush, nil
}

func disablesPush(st strategy.Strategy) bool {
	switch st.(type) {
	case strategy.NoPush, strategy.NoPushOptimized:
		return true
	}
	return false
}

func popularSetup(seed int64, ref []string) (loop, error) {
	push, noPush, err := pushTestbeds(scenario.DSL(), seed)
	if err != nil {
		return nil, err
	}
	l := &popularLoop{rc: core.NewRunContext()}
	for _, site := range corpus.PopularSites() {
		tr := push.Trace(site, traceRuns)
		for _, st := range core.PopularStrategies() {
			s, plan := st.Apply(site, tr)
			tb := push
			if disablesPush(st) {
				tb = noPush
			}
			l.loads = append(l.loads, popularLoad{name: site.Name + "/" + st.Name(), tb: tb, site: s, plan: plan})
		}
	}
	for run := range popularRunCycle {
		for _, ld := range l.loads {
			o, err := l.load(ld, run)
			if err != nil {
				return nil, fmt.Errorf("popular warm-up: %w", err)
			}
			l.want[run] = append(l.want[run], o)
		}
	}
	if got := l.digests(); ref != nil && !slices.Equal(got, ref) {
		l.mismatch = fmt.Errorf("popular: digests %q, reference %q", got, ref)
	}
	return l, nil
}

func (l *popularLoop) refErr() error { return l.mismatch }

func (l *popularLoop) digests() []string {
	var ds []string
	for _, outs := range l.want {
		ds = append(ds, outcomesDigest(outs))
	}
	return ds
}

func (l *popularLoop) pass(t *tally) {
	run := l.next % popularRunCycle
	l.next++
	start := time.Now()
	for i, ld := range l.loads {
		t0 := time.Now()
		o, err := l.load(ld, run)
		t.loadMs = append(t.loadMs, float64(time.Since(t0))/float64(time.Millisecond))
		t.op(err, l.mismatch == nil && o == l.want[run][i])
	}
	t.passDone(time.Since(start).Seconds(), int64(len(l.loads)))
}

// load runs one page load; a panic or a load that does not complete
// is an error.
func (l *popularLoop) load(ld popularLoad, run int) (o loadOutcome, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%s run %d: panic: %v", ld.name, run, p)
		}
	}()
	r := ld.tb.RunOnceWith(l.rc, ld.site, ld.plan, run)
	o = loadOutcome{plt: r.PLT, si: r.SpeedIndex, outcome: r.Outcome, pushed: r.WireBytesPushed}
	if r.Outcome != browser.OutcomeComplete {
		err = fmt.Errorf("%s run %d: load ended %v", ld.name, run, r.Outcome)
	}
	return o, err
}

// outcomesDigest is the SHA-256 of one pass's (PLT, SI, Outcome,
// WireBytesPushed) tuples in grid order.
func outcomesDigest(outs []loadOutcome) string {
	h := sha256.New()
	var b [25]byte
	for _, o := range outs {
		binary.LittleEndian.PutUint64(b[0:], uint64(o.plt))
		binary.LittleEndian.PutUint64(b[8:], uint64(o.si))
		b[16] = byte(o.outcome)
		binary.LittleEndian.PutUint64(b[17:], uint64(o.pushed))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}
