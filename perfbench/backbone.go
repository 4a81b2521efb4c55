package main

import (
	"fmt"
	"math"
	"path/filepath"
	"time"

	"github.com/icn-gaming/gcopss/internal/cd"
	"github.com/icn-gaming/gcopss/internal/copss"
	"github.com/icn-gaming/gcopss/internal/core"
	"github.com/icn-gaming/gcopss/internal/event"
	"github.com/icn-gaming/gcopss/internal/ndn"
	"github.com/icn-gaming/gcopss/internal/obs"
	"github.com/icn-gaming/gcopss/internal/testbed"
	"github.com/icn-gaming/gcopss/internal/topo"
	"github.com/icn-gaming/gcopss/internal/trace"
	"github.com/icn-gaming/gcopss/internal/wire"
)

// backboneScale is the backbone workload's size: the paper backbone with
// 2,000 players (heavy: the RP is saturated and queues for seconds) and 150
// players (light: every queue stays short), 5 s of publishing.
type backboneScale struct {
	heavy, light int
	duration     time.Duration
	small        bool // 24-router backbone instead of the 279-router one
}

func backboneSize(tiny bool) backboneScale {
	if tiny {
		return backboneScale{heavy: 120, light: 40, duration: time.Second, small: true}
	}
	return backboneScale{heavy: 2000, light: 150, duration: 5 * time.Second}
}

func (b backboneScale) setup(players int, seed int64) (*testbed.BackboneSetup, error) {
	var s *testbed.BackboneSetup
	var err error
	if b.small {
		s, err = testbed.SmallBackboneSetup(players, b.duration, seed)
	} else {
		s, err = testbed.PaperBackboneSetup(players, b.duration, seed)
	}
	if err != nil {
		return nil, err
	}
	s.Workers = 1
	return s, nil
}

// runBackbone measures testbed.RunBackbone on the paper backbone at one
// worker. Untraced, it reports the end-to-end metrics; traced, it runs the
// benchmark's own assembly of the same scenario with every layer boundary
// wrapped, after proving that assembly reproduces RunBackbone exactly.
func runBackbone(cfg config, r *run) error {
	size := backboneSize(cfg.Tiny)
	// Set-up (the world and its objects) takes about a millisecond, while
	// the host's speed drifts over tens of milliseconds; so set-up is timed
	// many times, some before every iteration, and reported as a median.
	var s *testbed.BackboneSetup
	timeSetup := func() (time.Duration, error) {
		t0 := time.Now()
		var err error
		s, err = size.setup(size.heavy, cfg.Seed)
		return time.Since(t0), err
	}
	setups, err := setupTimes(10, 10, timeSetup)
	if err != nil {
		return err
	}
	moreSetups := func(int) error {
		more, err := setupTimes(0, 3, timeSetup)
		setups = append(setups, more...)
		return err
	}
	ref, hasRef := backboneRefs[refKey{cfg.Seed, size.heavy, size.small}]
	var first *testbed.BackboneObservables
	refFailures, driftFailures := 0, 0
	check := func(o testbed.BackboneObservables) bool {
		ok := o.Published > 0 && o.Deliveries > 0
		if first == nil {
			first = &o
		} else if o != *first {
			driftFailures++
			ok = false
		}
		if hasRef && o != ref {
			refFailures++
			ok = false
		}
		return ok
	}
	untraced := cfg.Seconds
	if cfg.Trace {
		untraced = cfg.Seconds / 2
	}
	var deliveriesPerS []float64
	samples, gated, failed, err := timedLoop(untraced, 3, moreSetups, func(i int) (bool, error) {
		res, err := testbed.RunBackbone(s)
		if err != nil {
			return false, err
		}
		return check(res.Obs), nil
	})
	if err != nil {
		return err
	}
	if !cfg.Trace {
		r.set("max_rss_mb", maxRSSMB())
	}
	r.count(gated, failed)
	r.gate("backbone.deterministic", driftFailures == 0, fmt.Sprintf("%d of %d iterations differ from the first", driftFailures, gated))
	if hasRef {
		r.gate("backbone.reference", refFailures == 0, fmt.Sprintf("seed %d: %d of %d iterations differ from the recorded reference", cfg.Seed, refFailures, gated))
	} else {
		r.notes["reference"] = fmt.Sprintf("no recorded reference for seed %d at this size; gated on determinism and assembly equivalence", cfg.Seed)
	}
	r.notes["observables"] = obsString(*first)
	walls := column(samples, func(s sample) float64 { return s.Wall })
	for _, w := range walls {
		deliveriesPerS = append(deliveriesPerS, float64(first.Deliveries)/w)
	}
	costMetrics(r, samples)
	if !cfg.Trace {
		r.series("setup_s", "s", setups)
		r.series("run_s", "s", walls)
		r.series("deliveries_per_s.saturate", "1/s", deliveriesPerS)
		return backboneLatencies(size, cfg.Seed, s, *first, r)
	}
	return tracedBackbone(cfg, s, *first, median(walls), r)
}

// backboneLatencies runs the benchmark's own assembly (untimed) at the light
// and heavy player counts to get the simulated delivery-latency medians that
// RunBackbone does not expose. Each assembly run must reproduce
// RunBackbone's observables for the same setup.
func backboneLatencies(size backboneScale, seed int64, heavy *testbed.BackboneSetup, heavyObs testbed.BackboneObservables, r *run) error {
	light, err := size.setup(size.light, seed)
	if err != nil {
		return err
	}
	lightRes, err := testbed.RunBackbone(light)
	if err != nil {
		return err
	}
	for _, c := range []struct {
		name string
		s    *testbed.BackboneSetup
		want testbed.BackboneObservables
	}{
		{"light", light, lightRes.Obs},
		{"heavy", heavy, heavyObs},
	} {
		var lat []float64
		got, err := assembleBackbone(c.s, nil, &lat)
		if err != nil {
			return err
		}
		ok := got == c.want
		r.count(1, boolInt(!ok))
		r.gate("backbone.assembly_equivalence."+c.name, ok, fmt.Sprintf("assembly %s, RunBackbone %s", obsString(got), obsString(c.want)))
		if ref, has := backboneRefs[refKey{seed, c.s.Stream.Players, size.small}]; has && c.name == "light" {
			r.gate("backbone.reference.light", c.want == ref, fmt.Sprintf("seed %d: RunBackbone %s, reference %s", seed, obsString(c.want), obsString(ref)))
		}
		r.set("delivery_p50_ms."+c.name, median(lat))
	}
	return nil
}

// tracedBackbone runs the wrapped assembly for the rest of the time budget
// and reports the per-layer metrics.
func tracedBackbone(cfg config, s *testbed.BackboneSetup, want testbed.BackboneObservables, untracedWall float64, r *run) error {
	log := newSpanLog(4096, 20000)
	var probes []*backboneProbe
	var mismatches int
	samples, gated, _, err := timedLoop(cfg.Seconds/2, 1, nil, func(i int) (bool, error) {
		p := &backboneProbe{log: log}
		got, err := assembleBackbone(s, p, nil)
		if err != nil {
			return false, err
		}
		if got != want {
			mismatches++
			return false, nil
		}
		if i > 0 {
			probes = append(probes, p)
		}
		return true, nil
	})
	if err != nil {
		return err
	}
	r.count(gated, mismatches)
	r.gate("backbone.assembly_equivalence.traced", mismatches == 0, fmt.Sprintf("%d of %d traced runs differ from RunBackbone", mismatches, gated))
	if len(probes) == 0 {
		return fmt.Errorf("no traced run reproduced RunBackbone")
	}
	per := func(f func(p *backboneProbe) float64) []float64 {
		out := make([]float64, len(probes))
		for i, p := range probes {
			out[i] = f(p)
		}
		return out
	}
	r.series("event.events", "count", per(func(p *backboneProbe) float64 { return float64(p.events()) }))
	r.series("event.dispatch_ns_per_event", "ns", per(func(p *backboneProbe) float64 { return p.dispatchNsPerEvent() }))
	r.series("event.queue_high_water", "count", per(func(p *backboneProbe) float64 { return float64(p.queueHighWater) }))
	r.series("testbed.emits", "count", per(func(p *backboneProbe) float64 { return float64(p.sink.n + p.emit.n) }))
	r.series("testbed.emit_ns_per_pkt", "ns", per(func(p *backboneProbe) float64 {
		n := p.sink.n + p.emit.n
		if n == 0 {
			return 0
		}
		return float64(p.sink.ns+p.emit.ns) / float64(n)
	}))
	r.series("core.handle_calls", "count", per(func(p *backboneProbe) float64 { return float64(p.router.n) }))
	r.series("core.self_ns_per_call", "ns", per(func(p *backboneProbe) float64 {
		if p.router.n == 0 {
			return 0
		}
		return float64(p.router.ns-p.sink.ns) / float64(p.router.n)
	}))
	r.series("copss.bloom_probes", "count", per(func(p *backboneProbe) float64 { return float64(p.bloomProbes) }))
	r.series("copss.bloom_false_frac", "ratio", per(func(p *backboneProbe) float64 {
		if p.bloomProbes == 0 {
			return 0
		}
		return float64(p.bloomFalse) / float64(p.bloomProbes)
	}))
	r.series("trace.next_ns_per_update", "ns", per(func(p *backboneProbe) float64 { return p.next.mean() }))
	traced := median(column(samples, func(s sample) float64 { return s.Wall }))
	r.set("tracing.overhead_s", traced-untracedWall)
	r.notes["traced_run_s"] = traced
	r.notes["untraced_run_s"] = untracedWall
	path := filepath.Join(cfg.Out, fmt.Sprintf("backbone-seed%d.trace.json", cfg.Seed))
	r.notes["chrome_trace"] = path
	return log.writeChrome(path)
}

// backboneProbe wraps the layer boundaries of one traced assembly run.
type backboneProbe struct {
	log     *spanLog
	runSpan uint64

	router  tally // core.Router.HandlePacketTo, sink time included
	sink    tally // the ActionSink handed to router handlers
	player  tally // player (end host) handlers
	publish tally // publish callbacks, Next and Emit included
	next    tally // trace.Stream.Next inside publish callbacks
	emit    tally // testbed.Emit from publish and global events
	global  tally // global (Schedule) events, their Emit included
	run     time.Duration

	queueHighWater int64
	bloomProbes    uint64
	bloomFalse     uint64
}

func (p *backboneProbe) events() int {
	return p.router.n + p.player.n + p.publish.n + p.global.n
}

// dispatchNsPerEvent is testbed.Run's time outside node handlers, publish
// callbacks and global events, per event: the scheduler pop and push plus
// the testbed's receive and transmit glue.
func (p *backboneProbe) dispatchNsPerEvent() float64 {
	n := p.events()
	if n == 0 {
		return 0
	}
	inside := p.router.ns + p.player.ns + p.publish.ns + p.global.ns
	return float64(int64(p.run)-inside) / float64(n)
}

// timedSink times the testbed sink a router handler emits into.
type timedSink struct {
	p      *backboneProbe
	inner  ndn.ActionSink
	parent uint64 // sampled handler span, 0 when not sampled
}

func (s *timedSink) Emit(a ndn.Action) {
	t0 := time.Now()
	s.inner.Emit(a)
	d := time.Since(t0)
	s.p.sink.add(d)
	if s.parent != 0 {
		s.p.log.add("testbed.ActionSink.Emit", s.parent, t0, t0.Add(d))
	}
}

func (p *backboneProbe) routerHandler(r *core.Router) testbed.Handler {
	ts := &timedSink{p: p}
	return func(now time.Time, from ndn.FaceID, pkt *wire.Packet, sink ndn.ActionSink) {
		ts.inner, ts.parent = sink, 0
		if p.log.sample() {
			ts.parent = p.log.reserve()
		}
		t0 := time.Now()
		r.HandlePacketTo(now, from, pkt, ts)
		d := time.Since(t0)
		p.router.add(d)
		if ts.parent != 0 {
			p.log.addID(ts.parent, "core.Router.HandlePacketTo", p.runSpan, t0, t0.Add(d))
		}
	}
}

func (p *backboneProbe) timeEmit(tb *testbed.Testbed, now time.Time, node string, acts []ndn.Action, parent uint64) {
	t0 := time.Now()
	tb.Emit(now, node, acts)
	d := time.Since(t0)
	p.emit.add(d)
	if parent != 0 {
		p.log.add("testbed.Testbed.Emit", parent, t0, t0.Add(d))
	}
}

// backboneAcc mirrors RunBackbone's per-player accumulator.
type backboneAcc struct {
	pending    trace.Update
	seq        uint64
	published  int
	deliveries int
	hash       uint64
	latSumMs   float64
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvMix(h uint64, vs ...uint64) uint64 {
	if h == 0 {
		h = fnvOffset
	}
	for _, v := range vs {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= fnvPrime
		}
	}
	return h
}

func fnvMixString(h uint64, s string) uint64 {
	if h == 0 {
		h = fnvOffset
	}
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

func clientName(i int) string { return fmt.Sprintf("player%d", i) }

// assembleBackbone builds and runs s the way testbed.RunBackbone does for a
// clean single-worker run (no faults, no migration, no burst plane), from
// the public topo, core, testbed and trace functions. With a probe it wraps
// every layer boundary; with lat it appends every delivery's simulated
// latency in ms. It returns the same observables RunBackbone computes.
func assembleBackbone(s *testbed.BackboneSetup, p *backboneProbe, lat *[]float64) (testbed.BackboneObservables, error) {
	var o testbed.BackboneObservables
	if s.Workers > 1 || s.Burst || s.Migrate || s.FaultSpec != "" {
		return o, fmt.Errorf("assembly covers clean single-worker runs only")
	}
	g, cores, edges, err := topo.Backbone(s.Topo)
	if err != nil {
		return o, err
	}
	stream, err := trace.NewStream(s.World, s.Stream)
	if err != nil {
		return o, err
	}
	reg := obs.NewRegistry()
	tb := testbed.New(testbed.WithWorkers(1), testbed.WithObs(reg))

	n := g.NodeCount()
	routers := make([]*core.Router, n)
	nextFace := make([]ndn.FaceID, n)
	for id := 0; id < n; id++ {
		name := g.Name(topo.NodeID(id))
		r := core.NewRouter(name)
		routers[id] = r
		var h testbed.Handler = r.HandlePacketTo
		if p != nil {
			h = p.routerHandler(r)
		}
		tb.AddNodeOn(name, 0, h, func(*wire.Packet) time.Duration { return s.Costs.RouterProc }, s.Costs.PerCopy)
	}
	allocFace := func(id topo.NodeID) ndn.FaceID {
		nextFace[id]++
		return nextFace[id]
	}
	for a := topo.NodeID(0); a < topo.NodeID(n); a++ {
		for _, b := range g.Neighbors(a) {
			if b < a {
				continue
			}
			delayMs, _ := g.LinkDelay(a, b)
			fa, fb := allocFace(a), allocFace(b)
			routers[a].AddFace(fa, core.FaceRouter)
			routers[b].AddFace(fb, core.FaceRouter)
			if err := tb.Connect(g.Name(a), fa, g.Name(b), fb, time.Duration(delayMs*float64(time.Millisecond))); err != nil {
				return o, err
			}
		}
	}

	// RP at the core of least eccentricity, as RunBackbone chooses it.
	paths := g.AllPairs()
	ecc := func(id topo.NodeID) float64 {
		worst := 0.0
		for v := 0; v < n; v++ {
			if d := paths.Delay(id, topo.NodeID(v)); d > worst {
				worst = d
			}
		}
		return worst
	}
	rp, backup := cores[0], cores[1]
	if ecc(backup) < ecc(rp) {
		rp, backup = backup, rp
	}
	for _, c := range cores[2:] {
		switch e := ecc(c); {
		case e < ecc(rp):
			rp, backup = c, rp
		case e < ecc(backup):
			backup = c
		}
	}

	players := stream.Players()
	accs := make([]backboneAcc, len(players))
	for pi := range players {
		edge := edges[pi%len(edges)]
		name := clientName(pi)
		acc := &accs[pi]
		handle := func(now time.Time, _ ndn.FaceID, pkt *wire.Packet, _ ndn.ActionSink) {
			if pkt.Type == wire.TypeMulticast && pkt.Origin != name && pkt.Origin != core.FlushOrigin {
				acc.deliveries++
				ms := float64(now.UnixNano()-pkt.SentAt) / 1e6
				acc.latSumMs += ms
				acc.hash = fnvMixString(acc.hash, pkt.Origin)
				acc.hash = fnvMix(acc.hash, pkt.Seq, uint64(now.UnixNano()))
				if lat != nil {
					*lat = append(*lat, ms)
				}
			}
		}
		var h testbed.Handler = handle
		if p != nil {
			h = func(now time.Time, from ndn.FaceID, pkt *wire.Packet, sink ndn.ActionSink) {
				t0 := time.Now()
				handle(now, from, pkt, sink)
				p.player.add(time.Since(t0))
			}
		}
		tb.AddNodeOn(name, 0, h, func(*wire.Packet) time.Duration { return s.Costs.HostProc }, 0)
		f := allocFace(edge)
		routers[edge].AddFace(f, core.FaceClient)
		if err := tb.Connect(g.Name(edge), f, name, 0, s.HostDelay); err != nil {
			return o, err
		}
	}
	tb.Preallocate(64 + 16*len(players))

	// global wraps a global event's callback for the probe.
	global := func(fn func(now time.Time)) func(now time.Time) {
		if p == nil {
			return fn
		}
		return func(now time.Time) {
			t0 := time.Now()
			fn(now)
			p.global.add(time.Since(t0))
		}
	}
	emit := func(now time.Time, node string, acts []ndn.Action, parent uint64) {
		if p == nil {
			tb.Emit(now, node, acts)
			return
		}
		p.timeEmit(tb, now, node, acts, parent)
	}

	t0 := time.Unix(0, 0)
	rpName := g.Name(rp)
	regions := s.World.Map.RegionNames()
	info := copss.RPInfo{Name: "/rpA", Prefixes: copss.PartitionPrefixes(regions), Seq: 1}
	actions, err := routers[rp].BecomeRPAt(t0, info)
	if err != nil {
		return o, err
	}
	tb.Schedule(t0.Add(time.Millisecond), global(func(now time.Time) {
		emit(now, rpName, actions, 0)
	}))
	subAt := t0.Add(s.Warmup / 2)
	for pi, pl := range players {
		pi := pi
		area, ok := s.World.Map.Area(pl.Area)
		if !ok {
			return o, fmt.Errorf("player %d in unknown area %v", pi, pl.Area)
		}
		cds := area.SubscriptionCDs()
		tb.Schedule(subAt, global(func(now time.Time) {
			emit(now, clientName(pi), []ndn.Action{{Face: 0, Packet: &wire.Packet{Type: wire.TypeSubscribe, CDs: cds}}}, 0)
		}))
	}

	start := t0.Add(s.Warmup)
	var publish event.CallHandler
	publish = func(now time.Time, pl event.Payload) {
		var c0 time.Time
		var span uint64
		if p != nil {
			c0 = time.Now()
			if p.log.sample() {
				span = p.log.reserve()
			}
		}
		pi := int(pl.Int)
		acc := &accs[pi]
		u := acc.pending
		acc.seq++
		acc.published++
		emit(now, clientName(pi), []ndn.Action{{Face: 0, Packet: &wire.Packet{
			Type:    wire.TypeMulticast,
			CDs:     []cd.CD{u.CD},
			Origin:  clientName(pi),
			Seq:     acc.seq,
			Payload: make([]byte, u.Size),
			SentAt:  now.UnixNano(),
		}}}, span)
		var n0 time.Time
		if p != nil {
			n0 = time.Now()
		}
		next, ok := stream.Next(pi)
		if p != nil {
			d := time.Since(n0)
			p.next.add(d)
			if span != 0 {
				p.log.add("trace.Stream.Next", span, n0, n0.Add(d))
			}
		}
		if ok {
			acc.pending = next
			if err := tb.ScheduleNode(start.Add(next.At), clientName(pi), publish, pl); err != nil {
				panic(err) // the node was registered above
			}
		}
		if p != nil {
			d := time.Since(c0)
			p.publish.add(d)
			if span != 0 {
				p.log.addID(span, "testbed.publish", p.runSpan, c0, c0.Add(d))
			}
		}
	}
	for pi := range players {
		u, ok := stream.Next(pi)
		if !ok {
			continue
		}
		accs[pi].pending = u
		if err := tb.ScheduleNode(start.Add(u.At), clientName(pi), publish, event.Payload{Int: int64(pi)}); err != nil {
			return o, err
		}
	}

	deadline := start.Add(s.Stream.Duration + s.Drain)
	if p != nil {
		p.runSpan = p.log.reserve()
		r0 := time.Now()
		err = tb.Run(deadline, 0)
		p.run = time.Since(r0)
		p.log.addID(p.runSpan, "testbed.Testbed.Run", 0, r0, r0.Add(p.run))
		p.queueHighWater = reg.GaugeVec("testbed_shard_queue_high_water", "shard").With("0").Value()
		for _, r := range routers {
			pr, fm := r.ST().BloomStats()
			p.bloomProbes += pr
			p.bloomFalse += fm
		}
	} else {
		err = tb.Run(deadline, 0)
	}
	if err != nil {
		return o, err
	}

	var latSum float64
	for i := range accs {
		a := &accs[i]
		o.Published += a.published
		o.Deliveries += a.deliveries
		o.DeliveryHash = fnvMix(o.DeliveryHash, a.hash)
		latSum += a.latSumMs
	}
	if o.Deliveries > 0 {
		o.LatencyMeanBits = math.Float64bits(latSum / float64(o.Deliveries))
	}
	o.RPDeliveriesOld = routers[rp].Stats().RPDeliveries
	o.RPDeliveriesNew = routers[backup].Stats().RPDeliveries
	for _, r := range routers {
		o.Retransmissions += r.Stats().Retransmissions
	}
	o.PacketEvents, o.Bytes = tb.Stats()
	return o, nil
}

func obsString(o testbed.BackboneObservables) string {
	return fmt.Sprintf("published=%d deliveries=%d packet_events=%d bytes=%.0f latency_mean_bits=%#x delivery_hash=%#x rp_deliveries=%d",
		o.Published, o.Deliveries, o.PacketEvents, o.Bytes, o.LatencyMeanBits, o.DeliveryHash, o.RPDeliveriesOld)
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
