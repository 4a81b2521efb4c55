package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"github.com/icn-gaming/gcopss/internal/experiments"
	"github.com/icn-gaming/gcopss/internal/gamemap"
	"github.com/icn-gaming/gcopss/internal/sim"
	"github.com/icn-gaming/gcopss/internal/topo"
	"github.com/icn-gaming/gcopss/internal/trace"
)

// simScale is the experiment scale of the sim-paper workload: the one the
// repository's table and figure benchmarks use. Trace sizes have floors, so
// the smoke test runs the same scale with a shorter time budget.
const simScale = 0.012

// simInputs is how many inputs (trace, topology and world seeds) one run
// measures, each in its own timed iteration. It is odd, so the median of a
// simulated metric is the value of one input, and every input has a recorded
// reference for the default and the held-out seed.
const simInputs = 7

// saturateReplays is how many full-trace G-COPSS replays one iteration's
// throughput phase makes, so the phase lasts long enough to time.
const saturateReplays = 12

// simOutcome is one iteration's paper results.
type simOutcome struct {
	table1 *experiments.Table1Result
	fig5   *experiments.Fig5Result
	fig6   *experiments.Fig6Result
	table2 *experiments.Table2Result
	table3 *experiments.Table3Result
	// deliveries counts the (update, receiver) pairs of one throughput
	// phase replay.
	deliveries uint64
}

// fingerprint digests every headline number of Tables I–III and Figs 5–6
// (and the throughput phase's delivery count) with exact float bits.
func (o *simOutcome) fingerprint() string {
	h := sha256.New()
	for _, row := range o.table1.Rows {
		put(h, row.Kind, row.Count, row.LatencyMs, row.LoadGB, row.FinalRPs, row.Splits)
	}
	for _, s := range []*experiments.Fig5Series{o.fig5.ThreeRP, o.fig5.TwoRP, o.fig5.Auto} {
		put(h, s.Name, s.MeanMs, s.P50Ms, s.P99Ms, s.FinalRP, len(s.Splits))
		for _, sp := range s.Splits {
			put(h, fmt.Sprintf("%+v", sp))
		}
	}
	for _, p := range o.fig6.Points {
		put(h, p.Players, p.GCOPSSLatencyMs, p.ServerLatencyMs, p.GCOPSSLoadGB, p.ServerLoadGB)
	}
	for _, row := range o.table2.Rows {
		put(h, row.Kind, row.LatencyMs, row.LoadGB)
	}
	for _, s := range o.table3.Schemes {
		put(h, s.Name, s.TotalMean, s.TotalCI, s.BytesGB, int(s.ObjectsSent))
		types := make([]int, 0, len(s.PerType))
		for t := range s.PerType {
			types = append(types, int(t))
		}
		sort.Ints(types)
		for _, t := range types {
			put(h, t, fmt.Sprintf("%+v", s.PerType[gamemap.MoveType(t)]))
		}
	}
	put(h, int(o.deliveries))
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func put(h hash.Hash, vs ...any) {
	for _, v := range vs {
		switch x := v.(type) {
		case float64:
			h.Write(strconv.AppendUint(nil, math.Float64bits(x), 16))
		case int:
			h.Write(strconv.AppendInt(nil, int64(x), 10))
		case string:
			h.Write([]byte(x))
		}
		h.Write([]byte{0})
	}
}

// headline is the handful of paper numbers kept in the report.
func (o *simOutcome) headline() map[string]float64 {
	out := map[string]float64{}
	if one, ok := o.table1.Row("G-COPSS", "1"); ok {
		out["table1.gcopss_1rp_ms"] = one.LatencyMs
	}
	if three, ok := o.table1.Row("G-COPSS", "3"); ok {
		out["table1.gcopss_3rp_ms"] = three.LatencyMs
	}
	out["fig5.3rp_p50_ms"] = o.fig5.ThreeRP.P50Ms
	out["fig5.2rp_p50_ms"] = o.fig5.TwoRP.P50Ms
	out["fig5.auto_splits"] = float64(len(o.fig5.Auto.Splits))
	if gc, ok := o.table2.Row("G-COPSS"); ok {
		out["table2.gcopss_load_gb"] = gc.LoadGB
	}
	if cyc, ok := o.table3.Scheme("Cyclic-Multicast"); ok {
		out["table3.cyclic_ms"] = cyc.TotalMean
	}
	return out
}

// simTimes is the host time of each experiment in one iteration.
type simTimes struct {
	table1, fig5, fig6, table2, table3 time.Duration
}

// runExperiments runs Tables I and II and Figs 5 and 6 on w and Table III on
// its own workbench w3, as the repository's benchmarks do (Table III's object
// state evolves, so it needs a fresh world).
func runExperiments(w, w3 *experiments.Workbench, times *simTimes) (*simOutcome, error) {
	o := &simOutcome{}
	var err error
	step := func(d *time.Duration, fn func() error) {
		if err != nil {
			return
		}
		t0 := time.Now()
		err = fn()
		*d = time.Since(t0)
	}
	var t simTimes
	step(&t.table1, func() (e error) { o.table1, e = experiments.Table1(w); return })
	step(&t.fig5, func() (e error) { o.fig5, e = experiments.Fig5(w); return })
	step(&t.fig6, func() (e error) { o.fig6, e = experiments.Fig6(w); return })
	step(&t.table2, func() (e error) { o.table2, e = experiments.Table2(w); return })
	step(&t.table3, func() (e error) { o.table3, e = experiments.Table3(w3); return })
	if times != nil {
		*times = t
	}
	return o, err
}

// saturate replays the whole trace through G-COPSS with Table II's six RPs,
// flat out, saturateReplays times, and returns the deliveries of one replay
// (every replay must simulate the same ones) and of all of them.
func saturate(w *experiments.Workbench) (once, total uint64, err error) {
	for i := 0; i < saturateReplays; i++ {
		res, err := sim.Replay(w.Env, w.Trace.Updates, sim.GCOPSSConfig{
			RPs:   sim.DefaultRPPlacement(w.Env, 6),
			Costs: sim.PaperCosts(),
		})
		if err != nil {
			return 0, 0, err
		}
		if i > 0 && res.Deliveries != once {
			return 0, 0, fmt.Errorf("replay %d simulated %d deliveries, replay 0 %d", i, res.Deliveries, once)
		}
		once = res.Deliveries
		total += res.Deliveries
	}
	return once, total, nil
}

func simOptions(seed int64) experiments.Options {
	return experiments.Options{Scale: simScale, Seed: seed}
}

// subSeed is the workload seed of iteration i of a run over n inputs: the
// timed iterations cycle through seed*100+1 .. seed*100+n, so a run's
// medians describe the simulator over several inputs rather than one. The
// warm-up (iteration 0) repeats the first input, and the two must agree
// exactly, as must every repeat of an input in later rounds.
func subSeed(seed int64, i, n int) int64 {
	if i == 0 {
		i = 1
	}
	return seed*100 + int64((i-1)%n+1)
}

// runSimPaper measures the paper's large-scale results path: Tables I and
// II and Figs 5 and 6 on one workbench, Table III on its own, over simInputs
// inputs in whole rounds. Every iteration's headline numbers must repeat
// exactly for the same input, and equal the recorded reference when the
// input has one.
func runSimPaper(cfg config, r *run) error {
	var setups, satRates, light, heavy []float64
	var w, w3 *experiments.Workbench
	var satDeliveries uint64
	prints := map[int64]string{}
	var drift, refChecked, refFailures int
	var headline map[string]float64

	untraced := cfg.Seconds
	if cfg.Trace {
		untraced = cfg.Seconds / 2
	}
	n := simInputs
	if cfg.Tiny {
		n = 1
	}
	samples, gated, failed, err := roundsLoop(untraced, n, func(i int) error {
		// Set-up, untimed by the iteration: both workbenches, and the
		// throughput phase on its own clock.
		seed := subSeed(cfg.Seed, i, n)
		t0 := time.Now()
		var err error
		if w, err = experiments.NewWorkbench(simOptions(seed)); err != nil {
			return err
		}
		if i > 0 {
			setups = append(setups, time.Since(t0).Seconds())
		}
		if w3, err = experiments.NewWorkbench(simOptions(seed)); err != nil {
			return err
		}
		runtime.GC()
		t0 = time.Now()
		var total uint64
		if satDeliveries, total, err = saturate(w); err != nil {
			return err
		}
		if i > 0 {
			satRates = append(satRates, float64(total)/time.Since(t0).Seconds())
		}
		return nil
	}, func(i int) (bool, error) {
		o, err := runExperiments(w, w3, nil)
		if err != nil {
			return false, err
		}
		o.deliveries = satDeliveries
		seed, fp, ok := subSeed(cfg.Seed, i, n), o.fingerprint(), true
		if prev, seen := prints[seed]; seen && prev != fp {
			drift++
			ok = false
		}
		prints[seed] = fp
		if ref, has := simRefs[seed]; has {
			refChecked++
			if ref != fp {
				refFailures++
				ok = false
			}
		}
		if i >= 1 && i <= n {
			// The simulated p50 delivery latency of Fig. 5's peak workload
			// with three RPs (every RP under capacity) and two RPs (the hot
			// RP crosses saturation), once per input: later rounds repeat
			// them exactly.
			light = append(light, o.fig5.ThreeRP.P50Ms)
			heavy = append(heavy, o.fig5.TwoRP.P50Ms)
		}
		if i == 1 {
			headline = o.headline()
		}
		return ok, nil
	})
	if err != nil {
		return err
	}
	if !cfg.Trace {
		r.set("max_rss_mb", maxRSSMB())
	}
	r.count(gated, failed)
	r.gate("sim-paper.deterministic", drift == 0, fmt.Sprintf("%d repeated inputs gave different results", drift))
	if refChecked > 0 {
		r.gate("sim-paper.reference", refFailures == 0, fmt.Sprintf("%d of %d iterations with a recorded reference differ from it", refFailures, refChecked))
	} else {
		r.notes["reference"] = fmt.Sprintf("no recorded reference for the seeds of run seed %d; gated on determinism", cfg.Seed)
	}
	r.notes["fingerprints"] = prints
	r.notes["headline"] = headline
	walls := column(samples, func(s sample) float64 { return s.Wall })
	costMetrics(r, samples)
	if !cfg.Trace {
		r.series("setup_s", "s", setups)
		r.series("run_s", "s", walls)
		r.series("deliveries_per_s.saturate", "1/s", satRates)
		r.series("delivery_p50_ms.light", "ms", light)
		r.series("delivery_p50_ms.heavy", "ms", heavy)
		return nil
	}
	return tracedSimPaper(cfg, n, prints, median(walls), r)
}

// tracedSimPaper rebuilds the workbenches step by step, timing trace
// generation and environment construction apart, and times every
// experiment. It measures the untraced iterations' n inputs, and the rebuilt
// workbenches must reproduce their results exactly.
func tracedSimPaper(cfg config, n int, prints map[int64]string, untracedWall float64, r *run) error {
	log := newSpanLog(1, 10000)
	var gen, env, t1, f5, f6, t2, t3, walls []float64
	var mismatches int
	_, gated, _, err := roundsLoop(cfg.Seconds/2, n, nil, func(i int) (bool, error) {
		seed := subSeed(cfg.Seed, i, n)
		root := log.reserve()
		start := time.Now()
		w, g1, e1, err := buildWorkbench(simOptions(seed), log, root)
		if err != nil {
			return false, err
		}
		w3, g3, e3, err := buildWorkbench(simOptions(seed), log, root)
		if err != nil {
			return false, err
		}
		var times simTimes
		t0 := time.Now()
		o, err := runExperiments(w, w3, &times)
		if err != nil {
			return false, err
		}
		wall := time.Since(t0)
		at := t0
		for _, s := range []struct {
			name string
			d    time.Duration
		}{{"experiments.Table1", times.table1}, {"experiments.Fig5", times.fig5}, {"experiments.Fig6", times.fig6},
			{"experiments.Table2", times.table2}, {"experiments.Table3", times.table3}} {
			log.add(s.name, root, at, at.Add(s.d))
			at = at.Add(s.d)
		}
		if o.deliveries, _, err = saturate(w); err != nil {
			return false, err
		}
		log.addID(root, "sim-paper.iteration", 0, start, time.Now())
		if o.fingerprint() != prints[seed] {
			mismatches++
			return false, nil
		}
		if i == 0 {
			return true, nil // warm-up
		}
		gen = append(gen, (g1 + g3).Seconds())
		env = append(env, (e1 + e3).Seconds())
		t1 = append(t1, times.table1.Seconds())
		f5 = append(f5, times.fig5.Seconds())
		f6 = append(f6, times.fig6.Seconds())
		t2 = append(t2, times.table2.Seconds())
		t3 = append(t3, times.table3.Seconds())
		walls = append(walls, wall.Seconds())
		return true, nil
	})
	if err != nil {
		return err
	}
	r.count(gated, mismatches)
	r.gate("sim-paper.workbench_equivalence.traced", mismatches == 0, fmt.Sprintf("%d of %d traced iterations differ from the untraced results", mismatches, gated))
	if len(walls) == 0 {
		return fmt.Errorf("no traced iteration reproduced the untraced results")
	}
	r.series("trace.generate_s", "s", gen)
	r.series("sim.env_s", "s", env)
	r.series("experiments.table1_s", "s", t1)
	r.series("experiments.fig5_s", "s", f5)
	r.series("experiments.fig6_s", "s", f6)
	r.series("experiments.table2_s", "s", t2)
	r.series("experiments.table3_s", "s", t3)
	r.set("tracing.overhead_s", median(walls)-untracedWall)
	path := filepath.Join(cfg.Out, fmt.Sprintf("sim-paper-seed%d.trace.json", cfg.Seed))
	r.notes["chrome_trace"] = path
	return log.writeChrome(path)
}

// buildWorkbench is experiments.NewWorkbench taken apart so that trace
// generation and simulator environment construction are timed separately.
// The traced run checks that its results equal the untraced ones.
func buildWorkbench(opts experiments.Options, log *spanLog, parent uint64) (*experiments.Workbench, time.Duration, time.Duration, error) {
	if opts.Seed == 0 {
		opts.Seed = 42 // experiments.Options normalization
	}
	m, err := gamemap.NewGrid(5, 5)
	if err != nil {
		return nil, 0, 0, err
	}
	world := gamemap.NewWorld(m)
	if err := world.PopulateObjects(gamemap.PaperObjectCounts(), 0, rand.New(rand.NewSource(opts.Seed))); err != nil {
		return nil, 0, 0, err
	}
	tc := trace.PaperConfig()
	tc.Seed = opts.Seed
	tc.TotalUpdates = scaleInt(tc.TotalUpdates, opts.Scale, 20000)
	tc.Duration = time.Duration(float64(tc.Duration) * math.Max(opts.Scale, 0.02))
	g0 := time.Now()
	tr, err := trace.Generate(world, tc)
	gen := time.Since(g0)
	if err != nil {
		return nil, 0, 0, err
	}
	log.add("trace.Generate", parent, g0, g0.Add(gen))
	bb := topo.PaperBackbone()
	bb.Seed = opts.Seed
	if opts.Scale < 0.5 {
		bb.CoreRouters = scaleInt(bb.CoreRouters, math.Max(opts.Scale*4, 0.4), 20)
		bb.EdgeRouters = scaleInt(bb.EdgeRouters, math.Max(opts.Scale*4, 0.4), 60)
	}
	e0 := time.Now()
	env, err := sim.NewEnv(world, tr, bb)
	envD := time.Since(e0)
	if err != nil {
		return nil, 0, 0, err
	}
	log.add("sim.NewEnv", parent, e0, e0.Add(envD))
	return &experiments.Workbench{Opts: opts, World: world, Trace: tr, Env: env}, gen, envD, nil
}

func scaleInt(n int, scale float64, floor int) int {
	v := int(float64(n) * scale)
	if v < floor {
		v = floor
	}
	return v
}
