package main

import (
	"fmt"
	"maps"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/pprof"
	"slices"
	"time"

	"repro/internal/browser"
	"repro/internal/core"
	"repro/internal/cssx"
	"repro/internal/h2"
	"repro/internal/hpack"
	"repro/internal/htmlx"
	"repro/internal/netem"
	"repro/internal/page"
	"repro/internal/replay"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/strategy"
)

// perLayerMetrics are the traced run's metrics, in BENCHMARK.json order
// after the CPU shares.
var perLayerMetrics = func() []metricDef {
	var defs []metricDef
	for _, l := range profileLayers {
		defs = append(defs, metricDef{l + ".cpu_share", "frac"})
	}
	return append(defs, []metricDef{
		{"runtime.gc_share", "frac"},
		{"other.cpu_share", "frac"},
		{"h2.take_memmove_share", "frac"},
		{"hpack.huffman_share", "frac"},
		{"sim.events_per_load", "count"},
		{"sim.ns_per_event", "ns"},
		{"netem.bytes_per_load", "B"},
		{"netem.drops_per_load", "count"},
		{"replay.requests_per_load", "count"},
		{"replay.pushes_per_load", "count"},
		{"replay.pushed_kb_per_load", "KiB"},
		{"browser.conns_per_load", "count"},
		{"browser.push_used_frac", "frac"},
		{"browser.failed_resources_per_load", "count"},
		{"core.fork_hit_rate", "frac"},
		{"core.fork_bypassed", "frac"},
		{"corpus.generate_ms", "ms"},
		{"strategy.apply_ms", "ms"},
		{"core.trace_ms", "ms"},
		{"core.runonce_ms", "ms"},
		{"sim.queue_depth", "count"},
		{"sim.sched_pop_ns", "ns"},
		{"netem.ns_per_segment", "ns"},
		{"h2.read_ns_per_kb", "ns"},
		{"h2.read_allocs_per_frame", "count"},
		{"hpack.encode_ns_per_field", "ns"},
		{"hpack.decode_ns_per_field", "ns"},
		{"htmlx.parse_ns_per_kb", "ns"},
		{"cssx.parse_ns_per_kb", "ns"},
		{"trace.overhead_frac", "frac"},
	}...)
}()

// tracedRun measures the per-layer metrics. First every (site,
// strategy) of the workload's inputs is loaded once on an assembled
// stack with spans and counters, and each layer is timed alone on those
// inputs; this comes before set-up, while the corpus generator's and
// the strategies' per-site caches are still cold. Then the workload's
// ops run for half of rec.Seconds untraced and half under the CPU
// profiler; their median op times give the tracing overhead.
func tracedRun(rec *record, w workload, seed int64, ref []string) error {
	m := map[string]float64{}
	start := time.Now()
	sites, scens := w.inputs(seed)
	m["corpus.generate_ms"] = msSince(start)
	ls, err := layerPass(sites, scens, seed)
	if err != nil {
		return err
	}
	ls.metrics(m)
	if err := micro(m, scens[0].Profile, ls); err != nil {
		return err
	}

	core.ResetForkStats()
	lp, err := w.setup(seed, ref)
	if err != nil {
		return err
	}
	plain, _ := measure(lp, rec.Seconds/2)
	traced, shares, err := profiled(lp, rec.Seconds/2)
	if err != nil {
		return err
	}
	maps.Copy(m, shares)
	m["trace.overhead_frac"] = median(traced.passSec)/median(plain.passSec) - 1
	fork := core.ReadForkStats()
	m["core.fork_hit_rate"] = fork.HitRate()
	m["core.fork_bypassed"] = 0
	if runs := engineRuns(); runs > 0 {
		m["core.fork_bypassed"] = float64(fork.Bypassed) / float64(runs)
	}

	rec.Metrics = m
	rec.Attempted = plain.attempted + traced.attempted + ls.loads
	rec.Failed = plain.failed + traced.failed + ls.mismatches
	rec.Detail = map[string]float64{
		"passes_untraced": float64(len(plain.passSec)),
		"passes_traced":   float64(len(traced.passSec)),
		"layer_loads":     float64(ls.loads),
	}
	rec.Errors = append(refErrors(lp), ls.errs...)
	return nil
}

// profiled measures lp for secs under the CPU profiler and folds the
// profile by layer. The profile is written under .bench_build and
// removed afterwards.
func profiled(lp loop, secs float64) (*tally, map[string]float64, error) {
	dir := filepath.Join(".bench_build", "perfbench")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("cpu-%d.pprof", os.Getpid()))
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	defer os.Remove(path)
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, nil, err
	}
	t, _ := measure(lp, secs)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return nil, nil, err
	}
	shares, err := foldProfile(path)
	return t, shares, err
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// layerStats accumulates the single-load pass.
type layerStats struct {
	loads, mismatches int
	errs              []string

	events, simNs, bytes, drops    int64
	requests, pushes, pushedBytes  int64
	conns, used, wasted, failedRes int64
	applyMs, traceMs, runOnceMs    []float64
	heaviest                       assembledLoad
	heaviestEvents                 int
	order                          [][]*replay.Entry // per site, no-push fetch order on the first scenario
	bodies, html, css              [][]byte
	mss                            int
	headerLists                    [][][]hpack.HeaderField
}

// assembledLoad is one page load's inputs for the assembled stack.
type assembledLoad struct {
	tb   *core.Testbed
	site *replay.Site
	plan replay.Plan
	run  int
}

// assemble builds the layer stack Testbed.RunOnceWith builds on its
// non-fork path (same seed derivation, scenario conditions, farm and
// loader) from fresh objects, and starts the load.
func (a assembledLoad) assemble() (*sim.Sim, *netem.Network, *replay.Farm, *browser.Loader, error) {
	seed := a.tb.Seed*1_000_003 + int64(a.run)*7919
	cond := a.tb.Scenario.Derive(seed)
	if cond.FaultsActive() {
		return nil, nil, nil, nil, fmt.Errorf("scenario %s injects faults; the assembled stack has no injector", a.tb.Scenario.Name)
	}
	cfg := a.tb.Browser
	switch {
	case cond.ClientJitterFrac > 0:
		cfg.JitterFrac = cond.ClientJitterFrac
	case cond.ClientJitterFrac < 0:
		cfg.JitterFrac = 0
	}
	s := sim.New(seed)
	n := netem.New(s, cond.Profile)
	var scratch scenario.SiteScratch
	farm := replay.NewFarm(s, n, cond.ApplySiteInto(a.site, &scratch), a.plan)
	farm.ThinkTime = cond.ThinkTime
	ld := browser.New(s, farm, cfg)
	ld.Start()
	return s, n, farm, ld, nil
}

// layerPass loads every (site, strategy) of the inputs once (run 0)
// under each scenario, twice: through Testbed.RunOnceWith and on the
// assembled stack. The two results must be equal, so the counters read
// from the assembled stack describe the program the end-to-end run
// times; an unequal pair counts as a failed op.
func layerPass(sites []*replay.Site, scens []scenario.Scenario, seed int64) (*layerStats, error) {
	ls := &layerStats{mss: scens[0].Profile.MSS}
	rc := core.NewRunContext()
	for si, sc := range scens {
		push, noPush, err := pushTestbeds(sc, seed)
		if err != nil {
			return nil, err
		}
		for _, site := range sites {
			start := time.Now()
			tr := push.Trace(site, traceRuns)
			ls.traceMs = append(ls.traceMs, msSince(start))
			for _, st := range core.PopularStrategies() {
				start = time.Now()
				s, plan := st.Apply(site, tr)
				ls.applyMs = append(ls.applyMs, msSince(start))
				al := assembledLoad{tb: push, site: s, plan: plan}
				if disablesPush(st) {
					al.tb = noPush
				}
				start = time.Now()
				want := al.tb.RunOnceWith(rc, al.site, al.plan, al.run)
				ls.runOnceMs = append(ls.runOnceMs, msSince(start))
				if err := ls.load(al, want, site.Name+"/"+st.Name()+"/"+sc.Name); err != nil {
					return nil, err
				}
				if _, ok := st.(strategy.NoPush); ok && si == 0 {
					ls.order = append(ls.order, fetchOrder(site, want.Timings))
				}
			}
		}
	}
	ls.inputs(sites)
	return ls, nil
}

// load runs al on the assembled stack, compares it with want and adds
// its counters.
func (ls *layerStats) load(al assembledLoad, want *core.RunResult, name string) error {
	s, n, farm, ld, err := al.assemble()
	if err != nil {
		return err
	}
	start := time.Now()
	events := s.Run()
	ls.simNs += time.Since(start).Nanoseconds()
	got := ld.Result()
	ls.loads++
	if !sameResult(want.Result, got) || want.WireBytesPushed != farm.BytesPushed || want.WirePushCount != farm.PushCount {
		ls.mismatches++
		ls.errs = append(ls.errs, fmt.Sprintf("%s: assembled stack differs from Testbed.RunOnceWith", name))
	}
	ls.events += int64(events)
	ls.bytes += n.DownlinkDelivered() + n.UplinkDelivered()
	ls.drops += n.Drops()
	ls.requests += int64(farm.RequestCount)
	ls.pushes += int64(farm.PushCount)
	ls.pushedBytes += farm.BytesPushed
	ls.conns += int64(got.Conns)
	ls.used += got.BytesPushedUsed
	ls.wasted += got.BytesPushedWasted
	ls.failedRes += int64(got.FailedResources)
	if events > ls.heaviestEvents {
		ls.heaviest, ls.heaviestEvents = al, events
	}
	return nil
}

// sameResult compares two load results field by field; slices compare
// by content, so a recycled empty slice equals a fresh nil one.
func sameResult(a, b *browser.Result) bool {
	x, y := *a, *b
	if !slices.Equal(x.Progress, y.Progress) || !slices.Equal(x.Timings, y.Timings) {
		return false
	}
	x.Progress, x.Timings, y.Progress, y.Timings = nil, nil, nil, nil
	return reflect.DeepEqual(x, y)
}

// fetchOrder maps a load's resource timings to the site's entries, in
// the order the browser requested them.
func fetchOrder(site *replay.Site, ts []browser.ResourceTiming) []*replay.Entry {
	var es []*replay.Entry
	for _, t := range ts {
		if e := site.DB.Get(t.URL); e != nil {
			es = append(es, e)
		}
	}
	return es
}

// inputs collects the micro-timings' inputs from the sites: every body,
// the HTML documents and stylesheets, and per site the request and
// response header lists in fetch order.
func (ls *layerStats) inputs(sites []*replay.Site) {
	for _, site := range sites {
		for _, e := range site.DB.Entries() {
			ls.bodies = append(ls.bodies, e.Body)
			switch e.Kind() {
			case page.KindHTML:
				ls.html = append(ls.html, e.Body)
			case page.KindCSS:
				ls.css = append(ls.css, e.Body)
			}
		}
	}
	for _, es := range ls.order {
		var lists [][]hpack.HeaderField
		for _, e := range es {
			lists = append(lists, []hpack.HeaderField{
				{Name: ":method", Value: "GET"},
				{Name: ":scheme", Value: e.URL.Scheme},
				{Name: ":authority", Value: e.URL.Authority},
				{Name: ":path", Value: e.URL.Path},
				{Name: "user-agent", Value: "Mozilla/5.0 (X11; Linux x86_64) Chrome/64.0"},
				{Name: "accept-encoding", Value: "gzip, deflate, br"},
			})
			lists = append(lists, h2.ResponseFields(nil, e.Status, e.ContentType, len(e.Body)))
		}
		ls.headerLists = append(ls.headerLists, lists)
	}
}

func (ls *layerStats) metrics(m map[string]float64) {
	per := func(x int64) float64 { return float64(x) / float64(ls.loads) }
	m["sim.events_per_load"] = per(ls.events)
	m["sim.ns_per_event"] = float64(ls.simNs) / float64(ls.events)
	m["netem.bytes_per_load"] = per(ls.bytes)
	m["netem.drops_per_load"] = per(ls.drops)
	m["replay.requests_per_load"] = per(ls.requests)
	m["replay.pushes_per_load"] = per(ls.pushes)
	m["replay.pushed_kb_per_load"] = per(ls.pushedBytes) / 1024
	m["browser.conns_per_load"] = per(ls.conns)
	m["browser.push_used_frac"] = 0
	if ls.used+ls.wasted > 0 {
		m["browser.push_used_frac"] = float64(ls.used) / float64(ls.used+ls.wasted)
	}
	m["browser.failed_resources_per_load"] = per(ls.failedRes)
	// Apply and Trace are set-up costs, so their mean counts; a load
	// is a latency, so its median.
	m["strategy.apply_ms"] = mean(ls.applyMs)
	m["core.trace_ms"] = mean(ls.traceMs)
	m["core.runonce_ms"] = median(ls.runOnceMs)
}

// microMin is how long each layer micro-timing repeats at least.
const microMin = 200 * time.Millisecond

// perUnit repeats f (which returns the units of work it did) for at
// least microMin and five times, and returns the median ns per unit.
func perUnit(f func() float64) float64 {
	var xs []float64
	start := time.Now()
	for len(xs) < 5 || time.Since(start) < microMin {
		t0 := time.Now()
		units := f()
		xs = append(xs, float64(time.Since(t0).Nanoseconds())/units)
	}
	return median(xs)
}

// micro times each layer alone, through public functions only, on the
// workload's own bodies, documents and header lists.
func micro(m map[string]float64, prof netem.Profile, ls *layerStats) error {
	depth, err := ls.queueDepth()
	if err != nil {
		return err
	}
	m["sim.queue_depth"] = float64(depth)
	m["sim.sched_pop_ns"] = schedPop(depth)
	if m["netem.ns_per_segment"], err = bulkTransfer(prof, ls.bodies); err != nil {
		return err
	}
	if m["h2.read_ns_per_kb"], m["h2.read_allocs_per_frame"], err = frameRead(ls.bodies, ls.mss); err != nil {
		return err
	}
	if m["hpack.encode_ns_per_field"], m["hpack.decode_ns_per_field"], err = hpackCoding(ls.headerLists); err != nil {
		return err
	}
	m["htmlx.parse_ns_per_kb"] = parsePerKB(ls.html, func(b []byte) { htmlx.Parse(b) })
	m["cssx.parse_ns_per_kb"] = parsePerKB(ls.css, func(b []byte) { cssx.Parse(b) })
	return nil
}

// queueDepth replays the pass's heaviest load event by event and
// returns the deepest event queue it reached.
func (ls *layerStats) queueDepth() (int, error) {
	s, _, _, _, err := ls.heaviest.assemble()
	if err != nil {
		return 0, err
	}
	depth := 0
	for s.Step() {
		depth = max(depth, s.Pending())
	}
	return depth, nil
}

func nop(any) {}

// schedPop times one AtCall plus one Step with depth events queued.
func schedPop(depth int) float64 {
	const n = 1 << 16
	rng := rand.New(rand.NewPCG(1, 2))
	s := sim.New(1)
	for range depth {
		s.AtCall(time.Duration(rng.IntN(1_000_000)), nop, nil)
	}
	return perUnit(func() float64 {
		for range n {
			s.AtCall(s.Now()+time.Duration(rng.IntN(1_000_000)), nop, nil)
			s.Step()
		}
		return n
	})
}

// maxBulkBytes bounds one bulk transfer.
const maxBulkBytes = 4 << 20

// bulkTransfer sends the bodies back to back over one connection of
// prof and returns wall ns per MSS-sized segment.
func bulkTransfer(prof netem.Profile, bodies [][]byte) (float64, error) {
	var total int64
	var send [][]byte
	for _, b := range bodies {
		if total+int64(len(b)) > maxBulkBytes {
			break
		}
		if len(b) > 0 {
			send = append(send, b)
			total += int64(len(b))
		}
	}
	var got int64
	ns := perUnit(func() float64 {
		got = 0
		s := sim.New(1)
		n := netem.New(s, prof)
		n.Dial(func(c *netem.Conn) {
			c.ClientEnd().SetReceiver(func(b []byte) { got += int64(len(b)) })
			for _, b := range send {
				c.ServerEnd().Write(b)
			}
		})
		s.Run()
		return float64((total + int64(prof.MSS) - 1) / int64(prof.MSS))
	})
	if got != total {
		return 0, fmt.Errorf("netem bulk transfer delivered %d of %d bytes", got, total)
	}
	return ns, nil
}

// frameRead frames the bodies as DATA frames, splits the stream at mss
// and feeds it through one FrameReader. It returns wall ns per payload
// KiB and heap allocations per frame.
func frameRead(bodies [][]byte, mss int) (nsPerKB, allocsPerFrame float64, err error) {
	var stream []byte
	var payload int64
	for i, b := range bodies {
		if payload+int64(len(b)) > maxBulkBytes {
			break
		}
		for off := 0; off < len(b) || off == 0; off += h2.DefaultMaxFrameSize {
			end := min(off+h2.DefaultMaxFrameSize, len(b))
			stream = h2.AppendFrame(stream, &h2.DataFrame{StreamID: uint32(2*i + 1), Data: b[off:end], EndStream: end == len(b)})
		}
		payload += int64(len(b))
	}
	var segs [][]byte
	for off := 0; off < len(stream); off += mss {
		segs = append(segs, stream[off:min(off+mss, len(stream))])
	}
	var fr h2.FrameReader
	read := func() (frames int, n int64, err error) {
		fr.Reset()
		for _, seg := range segs {
			fr.Feed(seg)
			for {
				f, err := fr.Next()
				if err != nil {
					return 0, 0, err
				}
				if f == nil {
					break
				}
				frames++
				n += int64(len(f.(*h2.DataFrame).Data))
			}
		}
		return frames, n, nil
	}
	if _, n, err := read(); err != nil || n != payload {
		return 0, 0, fmt.Errorf("h2 frame read: %d of %d payload bytes, err %v", n, payload, err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	frames, _, _ := read()
	runtime.ReadMemStats(&after)
	allocsPerFrame = float64(after.Mallocs-before.Mallocs) / float64(frames)
	nsPerKB = perUnit(func() float64 {
		read()
		return float64(payload) / 1024
	})
	return nsPerKB, allocsPerFrame, nil
}

// hpackCoding encodes each site's header lists on one connection's
// encoder, in fetch order, then decodes them on one decoder, and
// returns ns per field for each direction.
func hpackCoding(sites [][][]hpack.HeaderField) (encNs, decNs float64, err error) {
	fields := 0
	for _, lists := range sites {
		for _, l := range lists {
			fields += len(l)
		}
	}
	if fields == 0 {
		return 0, 0, fmt.Errorf("hpack: no header lists")
	}
	// EncodeBlock's result aliases the encoder's buffer: each block is
	// copied out, as the h2 layer copies it into a frame.
	blocks := make([][][]byte, len(sites))
	for i, lists := range sites {
		blocks[i] = make([][]byte, len(lists))
	}
	encNs = perUnit(func() float64 {
		for i, lists := range sites {
			enc := hpack.NewEncoder()
			for j, l := range lists {
				blocks[i][j] = append(blocks[i][j][:0], enc.EncodeBlock(l)...)
			}
		}
		return float64(fields)
	})
	for i, lists := range sites {
		dec := hpack.NewDecoder()
		for j, b := range blocks[i] {
			got, err := dec.DecodeBlock(b)
			if err != nil {
				return 0, 0, fmt.Errorf("hpack decode: %w", err)
			}
			if !slices.Equal(got, lists[j]) {
				return 0, 0, fmt.Errorf("hpack round trip changed a header list")
			}
		}
	}
	decNs = perUnit(func() float64 {
		for _, bs := range blocks {
			dec := hpack.NewDecoder()
			for _, b := range bs {
				if _, err := dec.DecodeBlock(b); err != nil {
					panic(err) // decoded cleanly above
				}
			}
		}
		return float64(fields)
	})
	return encNs, decNs, nil
}

// parsePerKB times parse over every document and returns ns per KiB.
func parsePerKB(docs [][]byte, parse func([]byte)) float64 {
	var kb float64
	for _, d := range docs {
		kb += float64(len(d)) / 1024
	}
	return perUnit(func() float64 {
		for _, d := range docs {
			parse(d)
		}
		return kb
	})
}
