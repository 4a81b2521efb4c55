package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/icn-gaming/gcopss/internal/cd"
	"github.com/icn-gaming/gcopss/internal/copss"
	"github.com/icn-gaming/gcopss/internal/core"
	"github.com/icn-gaming/gcopss/internal/gamemap"
	"github.com/icn-gaming/gcopss/internal/obs"
	"github.com/icn-gaming/gcopss/internal/transport"
	"github.com/icn-gaming/gcopss/internal/wire"
)

// daemonScale sizes the daemon workload. Load comes from this process over
// two loopback TCP connections (one per CPU of the reference host), each
// multiplexing half of the players like an edge server.
type daemonScale struct {
	players   int     // players in ground zones, split across the connections
	lightRate float64 // aggregate publications per second, light phase
	heavyRate float64 // aggregate publications per second, heavy phase
	phase     time.Duration
	// saturatePubs publications per connection in the closed-loop phase,
	// with window of them outstanding per connection.
	saturatePubs int
	window       int
	moveShare    float64 // share of the players that change zone each second
}

func daemonSize(tiny bool) daemonScale {
	if tiny {
		return daemonScale{players: 40, lightRate: 500, heavyRate: 2000, phase: 300 * time.Millisecond,
			saturatePubs: 2000, window: 32, moveShare: 0.5}
	}
	return daemonScale{players: 100, lightRate: 2000, heavyRate: 20000, phase: 2 * time.Second,
		saturatePubs: 80000, window: 64, moveShare: 0.5}
}

const numEdges = 2

// zoneModel is the subscription algebra of the 5x5 paper map restricted to
// ground zones: which subscription CDs a zone's players hold, and which of
// them cover a publication to the zone, by cd prefix rules. Subscription
// sets are bitmasks over the universe of subscription CDs.
type zoneModel struct {
	zones  []*gamemap.Area
	subCDs []cd.CD
	subs   [][]int  // zone -> indices of its subscription CDs
	cover  []uint64 // zone -> mask of subscription CDs that cover its publications
	rp     copss.RPInfo
}

func newZoneModel() (*zoneModel, error) {
	m, err := gamemap.NewGrid(5, 5)
	if err != nil {
		return nil, err
	}
	zm := &zoneModel{rp: copss.RPInfo{Name: "/rp1", Prefixes: copss.PartitionPrefixes(m.RegionNames()), Seq: 1}}
	bit := map[string]int{}
	for _, a := range m.Areas() {
		if !a.IsLeaf() {
			continue
		}
		zm.zones = append(zm.zones, a)
		var idx []int
		for _, c := range a.SubscriptionCDs() {
			b, ok := bit[c.Key()]
			if !ok {
				b = len(zm.subCDs)
				bit[c.Key()] = b
				zm.subCDs = append(zm.subCDs, c)
			}
			idx = append(idx, b)
		}
		zm.subs = append(zm.subs, idx)
	}
	if len(zm.subCDs) > 64 {
		return nil, fmt.Errorf("%d subscription CDs do not fit a 64-bit mask", len(zm.subCDs))
	}
	for _, z := range zm.zones {
		var mask uint64
		for b, s := range zm.subCDs {
			if z.PublishCD().HasPrefix(s) {
				mask |= 1 << b
			}
		}
		zm.cover = append(zm.cover, mask)
	}
	return zm, nil
}

// pubRec is one publication as its edge sent it.
type pubRec struct {
	zone  int
	due   int64 // when it was due, unix ns (stamped into SentAt)
	write int64 // when the frame carrying it started to be written
}

// ctlEvent is one subscription change an edge sent.
type ctlEvent struct {
	write   int64  // when the frame carrying it started to be written
	state   uint64 // the edge's subscription mask after it
	nextPub int    // the edge's first publication after it (-1: none)
}

type receipt struct {
	seq uint64
	at  int64
}

// edge is one load-generating connection: a sender (run by the phase
// goroutines) and a receiver goroutine.
type edge struct {
	id      int
	conn    *transport.Conn
	zm      *zoneModel
	pubRng  *rand.Rand
	moveRng *rand.Rand
	players []int // current zone of each local player
	refs    []int // local players holding each subscription CD
	state   uint64
	// startState is state when the current phase began.
	startState uint64

	// Per-phase send log, written by the phase's sender goroutine and read
	// after it has finished.
	phaseID uint64
	pubs    []pubRec
	ctl     []ctlEvent
	openCtl []int // ctl events still waiting for a following publication
	frame   []*wire.Packet
	record  bool            // keep every frame (traced runs)
	frames  []recordedFrame // recorded frames, when record is set
	writes  tally           // WriteBurst calls, when record is set
	log     *spanLog        // sampled WriteBurst spans, when record is set
	written struct{ frames, pkts int }

	// Receiver state.
	mu        sync.Mutex
	recv      []receipt                  // guarded by mu
	readStats struct{ frames, pkts int } // guarded by mu
	echoes    atomic.Int64
	notify    chan struct{}
	done      chan struct{}
}

// recordedFrame is one frame as an edge wrote it.
type recordedFrame struct {
	edge  int
	write int64
	pkts  []*wire.Packet
}

func seqOf(phase uint64, k, edgeID int) uint64 {
	return phase<<32 | uint64(k)<<1 | uint64(edgeID)
}

func splitSeq(seq uint64) (phase uint64, k, edgeID int) {
	return seq >> 32, int(seq&0xffffffff) >> 1, int(seq & 1)
}

// receive reads frames until the connection closes.
func (e *edge) receive() {
	defer close(e.done)
	var buf []*wire.Packet
	for {
		pkts, err := e.conn.ReadBurst(buf[:0])
		if err != nil {
			return
		}
		at := time.Now().UnixNano()
		own := 0
		e.mu.Lock()
		for _, p := range pkts {
			if p.Type != wire.TypeMulticast {
				continue
			}
			e.recv = append(e.recv, receipt{seq: p.Seq, at: at})
			if _, _, id := splitSeq(p.Seq); id == e.id {
				own++
			}
		}
		e.readStats.frames++
		e.readStats.pkts += len(pkts)
		e.mu.Unlock()
		if own > 0 {
			e.echoes.Add(int64(own))
			select {
			case e.notify <- struct{}{}:
			default:
			}
		}
		buf = pkts
	}
}

// arrive applies one player's arrival in zone z to the edge's aggregated
// subscriptions and appends the resulting Subscribe packet, if any.
func (e *edge) arrive(z int) {
	var add []cd.CD
	for _, b := range e.zm.subs[z] {
		e.refs[b]++
		if e.refs[b] == 1 {
			add = append(add, e.zm.subCDs[b])
			e.state |= 1 << b
		}
	}
	if len(add) > 0 {
		e.control(&wire.Packet{Type: wire.TypeSubscribe, CDs: add})
	}
}

// leave applies one player's departure from zone z and appends the
// resulting Unsubscribe packet, if any.
func (e *edge) leave(z int) {
	var drop []cd.CD
	for _, b := range e.zm.subs[z] {
		e.refs[b]--
		if e.refs[b] == 0 {
			drop = append(drop, e.zm.subCDs[b])
			e.state &^= 1 << b
		}
	}
	if len(drop) > 0 {
		e.control(&wire.Packet{Type: wire.TypeUnsubscribe, CDs: drop})
	}
}

func (e *edge) control(p *wire.Packet) {
	e.frame = append(e.frame, p)
	e.openCtl = append(e.openCtl, len(e.ctl))
	e.ctl = append(e.ctl, ctlEvent{state: e.state, nextPub: -1})
}

// move relocates one local player to another zone, make-before-break: the
// new zone's subscriptions go out before the old zone's are withdrawn.
func (e *edge) move() {
	pi := e.moveRng.Intn(len(e.players))
	to := e.moveRng.Intn(len(e.zm.zones))
	from := e.players[pi]
	if to == from {
		return
	}
	e.arrive(to)
	e.leave(from)
	e.players[pi] = to
}

// publish appends the edge's next publication, due at due.
func (e *edge) publish(due time.Time) {
	pi := e.pubRng.Intn(len(e.players))
	size := 50 + e.pubRng.Intn(301)
	z := e.players[pi]
	k := len(e.pubs)
	for _, i := range e.openCtl {
		e.ctl[i].nextPub = k
	}
	e.openCtl = e.openCtl[:0]
	e.pubs = append(e.pubs, pubRec{zone: z, due: due.UnixNano()})
	e.frame = append(e.frame, &wire.Packet{
		Type:    wire.TypeMulticast,
		CDs:     []cd.CD{e.zm.zones[z].PublishCD()},
		Origin:  fmt.Sprintf("e%dp%d", e.id, pi),
		Seq:     seqOf(e.phaseID, k, e.id),
		Payload: make([]byte, size),
		SentAt:  due.UnixNano(),
	})
}

// flush writes the pending frame as one burst and stamps its entries with
// the write start time.
func (e *edge) flush(pubsBefore, ctlBefore int) error {
	if len(e.frame) == 0 {
		return nil
	}
	t0 := time.Now()
	w := t0.UnixNano()
	for i := pubsBefore; i < len(e.pubs); i++ {
		e.pubs[i].write = w
	}
	for i := ctlBefore; i < len(e.ctl); i++ {
		e.ctl[i].write = w
	}
	err := e.conn.WriteBurst(e.frame)
	if e.record {
		d := time.Since(t0)
		e.writes.add(d)
		if e.log.sample() {
			e.log.add("transport.Conn.WriteBurst", 0, t0, t0.Add(d))
		}
		e.frames = append(e.frames, recordedFrame{edge: e.id, write: w, pkts: append([]*wire.Packet(nil), e.frame...)})
	}
	e.written.frames++
	e.written.pkts += len(e.frame)
	e.frame = e.frame[:0]
	if err != nil {
		return fmt.Errorf("edge %d: %w", e.id, err)
	}
	return nil
}

// openLoop sends publications at rate per second, each due at a fixed
// offset from start; everything due when the sender wakes leaves as one
// frame. Moves fall due on their own schedule.
func (e *edge) openLoop(start time.Time, dur time.Duration, rate, movesPerSec float64) error {
	interval := time.Duration(float64(time.Second) / rate)
	n := int(dur / interval)
	moveEvery := time.Duration(float64(time.Second) / movesPerSec)
	// The two edges interleave their schedules by half an interval.
	first := start.Add(time.Duration(e.id) * interval / numEdges)
	nextMove := first.Add(moveEvery / 2)
	for k := 0; k < n; {
		now := time.Now()
		pubsBefore, ctlBefore := len(e.pubs), len(e.ctl)
		for !nextMove.After(now) {
			e.move()
			nextMove = nextMove.Add(moveEvery)
		}
		for ; k < n; k++ {
			due := first.Add(time.Duration(k) * interval)
			if due.After(now) {
				break
			}
			e.publish(due)
		}
		if len(e.frame) == 0 {
			wake := first.Add(time.Duration(k) * interval)
			if nextMove.Before(wake) {
				wake = nextMove
			}
			time.Sleep(time.Until(wake))
			continue
		}
		if err := e.flush(pubsBefore, ctlBefore); err != nil {
			return err
		}
	}
	return nil
}

// closedLoop keeps window publications outstanding until total have been
// sent; a publication completes when its echo returns on this connection.
func (e *edge) closedLoop(total, window int, movesPerSec float64) error {
	base := e.echoes.Load()
	moveEvery := time.Duration(float64(time.Second) / movesPerSec)
	nextMove := time.Now().Add(moveEvery / 2)
	timeout := time.NewTimer(time.Hour)
	defer timeout.Stop()
	for sent := 0; sent < total; {
		room := window - (sent - int(e.echoes.Load()-base))
		if room <= 0 {
			timeout.Reset(10 * time.Second)
			select {
			case <-e.notify:
			case <-timeout.C:
				return fmt.Errorf("edge %d: no echo for 10 s with %d outstanding", e.id, window)
			}
			continue
		}
		now := time.Now()
		pubsBefore, ctlBefore := len(e.pubs), len(e.ctl)
		for !nextMove.After(now) {
			e.move()
			nextMove = nextMove.Add(moveEvery)
		}
		for ; room > 0 && sent < total; room-- {
			e.publish(now)
			sent++
		}
		if err := e.flush(pubsBefore, ctlBefore); err != nil {
			return err
		}
	}
	return nil
}

// daemonRig is one daemon and its two edge connections.
type daemonRig struct {
	cancel context.CancelFunc
	errc   chan error
	edges  []*edge
	zm     *zoneModel
}

// startRig builds the daemon the way cmd/gcopssd does (flight recorder at
// its default capacity), hosts the RP for the five regions, dials the two
// edges and subscribes their initial players. It returns once both edges
// have seen their own probe publication come back, so every face and
// subscription is in place.
func startRig(zm *zoneModel, size daemonScale, seed int64) (*daemonRig, error) {
	d := transport.NewDaemon("R1", core.WithFlightRecorder(obs.NewFlight(1024)))
	d.SetLogger(func(string, ...interface{}) {})
	addr, err := d.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	rig := &daemonRig{cancel: cancel, errc: make(chan error, 1), zm: zm}
	go func() { rig.errc <- d.Run(ctx) }()
	if err := d.BecomeRP(zm.rp); err != nil {
		rig.stop()
		return nil, err
	}
	place := rand.New(rand.NewSource(seed))
	for id := 0; id < numEdges; id++ {
		conn, err := transport.Dial(addr.String(), transport.PeerClient, fmt.Sprintf("edge%d", id), 5*time.Second)
		if err != nil {
			rig.stop()
			return nil, err
		}
		e := &edge{
			id:      id,
			conn:    conn,
			zm:      zm,
			pubRng:  rand.New(rand.NewSource(seed*1000 + int64(2*id+1))),
			moveRng: rand.New(rand.NewSource(seed*1000 + int64(2*id+2))),
			refs:    make([]int, len(zm.subCDs)),
			notify:  make(chan struct{}, 1),
			done:    make(chan struct{}),
		}
		rig.edges = append(rig.edges, e)
		go e.receive()
	}
	for pi := 0; pi < size.players; pi++ {
		e := rig.edges[pi%numEdges]
		z := place.Intn(len(zm.zones))
		e.players = append(e.players, z)
		e.arrive(z)
	}
	// Probe: one publication per edge into one of its own players' zones.
	// Its echo proves the face is attached and the subscriptions landed.
	for _, e := range rig.edges {
		e.phaseID = 0
		e.publish(time.Now())
		if err := e.flush(0, 0); err != nil {
			rig.stop()
			return nil, err
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, e := range rig.edges {
		for e.echoes.Load() < 1 {
			if time.Now().After(deadline) {
				rig.stop()
				return nil, errors.New("daemon did not echo the setup probe within 10 s")
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	for _, e := range rig.edges {
		e.resetPhase(0)
	}
	return rig, nil
}

// stop shuts the daemon down and waits for it and both receivers to exit.
func (rig *daemonRig) stop() {
	rig.cancel()
	<-rig.errc
	for _, e := range rig.edges {
		e.conn.Close() //nolint:errcheck // shutting down
		<-e.done
	}
}

func (e *edge) resetPhase(id uint64) {
	e.phaseID = id
	e.startState = e.state
	e.pubs, e.ctl, e.openCtl = e.pubs[:0], e.ctl[:0], e.openCtl[:0]
	e.mu.Lock()
	e.recv = e.recv[:0]
	e.mu.Unlock()
}

// phaseOutcome is one phase's oracle verdict and measurements.
type phaseOutcome struct {
	pairs, failed     int // (publication, connection) pairs judged, and wrong
	missing, dup      int
	unexpected, stray int
	ambiguous         int
	deliveries        int
	latMs             []float64 // due -> receipt, every delivery
	lagMs             []float64 // due -> write start, every publication
	start, lastRecv   int64
}

// runPhase runs one phase on both edges concurrently, waits for the
// deliveries to drain and judges them.
func (rig *daemonRig) runPhase(id uint64, send func(e *edge, start time.Time) error) (phaseOutcome, error) {
	for _, e := range rig.edges {
		e.resetPhase(id)
	}
	start := time.Now().Add(time.Millisecond)
	errs := make([]error, len(rig.edges))
	var wg sync.WaitGroup
	for i, e := range rig.edges {
		wg.Add(1)
		go func(i int, e *edge) {
			defer wg.Done()
			errs[i] = send(e, start)
		}(i, e)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return phaseOutcome{}, err
	}
	if err := rig.drain(); err != nil {
		return phaseOutcome{}, err
	}
	return rig.judge(start.UnixNano()), nil
}

// drain waits until every edge has its own publications back, then until
// no delivery has arrived anywhere for 30 ms.
func (rig *daemonRig) drain() error {
	deadline := time.Now().Add(20 * time.Second)
	for _, e := range rig.edges {
		for {
			e.mu.Lock()
			own := 0
			for _, r := range e.recv {
				if ph, _, id := splitSeq(r.seq); ph == e.phaseID && id == e.id {
					own++
				}
			}
			e.mu.Unlock()
			if own >= len(e.pubs) {
				break
			}
			if time.Now().After(deadline) {
				return nil // the oracle counts what is missing
			}
			time.Sleep(time.Millisecond)
		}
	}
	last := -1
	for {
		n := 0
		for _, e := range rig.edges {
			e.mu.Lock()
			n += len(e.recv)
			e.mu.Unlock()
		}
		if n == last {
			return nil
		}
		last = n
		time.Sleep(30 * time.Millisecond)
	}
}

// daemonIter is one iteration's measurements.
type daemonIter struct {
	light, heavy, sat phaseOutcome
	saturateS         float64
}

func (it daemonIter) phases() []phaseOutcome { return []phaseOutcome{it.light, it.heavy, it.sat} }

// iterate runs the light, heavy and saturate phases once.
func (rig *daemonRig) iterate(size daemonScale, phaseID *uint64) (daemonIter, error) {
	var it daemonIter
	movesPerSec := size.moveShare * float64(size.players) / numEdges
	open := func(rate float64) func(e *edge, start time.Time) error {
		return func(e *edge, start time.Time) error {
			return e.openLoop(start, size.phase, rate/numEdges, movesPerSec)
		}
	}
	var err error
	*phaseID++
	if it.light, err = rig.runPhase(*phaseID, open(size.lightRate)); err != nil {
		return it, fmt.Errorf("light phase: %w", err)
	}
	*phaseID++
	if it.heavy, err = rig.runPhase(*phaseID, open(size.heavyRate)); err != nil {
		return it, fmt.Errorf("heavy phase: %w", err)
	}
	*phaseID++
	if it.sat, err = rig.runPhase(*phaseID, func(e *edge, _ time.Time) error {
		return e.closedLoop(size.saturatePubs, size.window, movesPerSec)
	}); err != nil {
		return it, fmt.Errorf("saturate phase: %w", err)
	}
	it.saturateS = float64(it.sat.lastRecv-it.sat.start) / 1e9
	return it, nil
}

// runDaemon measures the TCP daemon: open-loop light and heavy phases
// (latency from each publication's due time to its receipt), a closed-loop
// saturate phase (deliveries per second), player churn throughout, and the
// delivery oracle on every phase.
func runDaemon(cfg config, r *run) error {
	size := daemonSize(cfg.Tiny)
	zm, err := newZoneModel()
	if err != nil {
		return err
	}
	// Set-up takes one or two milliseconds, depending on how fast the host
	// wakes idle CPUs, and that shifts over tens of milliseconds; so set-up
	// is timed many times, some before every iteration, on rigs started and
	// stopped beside the one that serves the run, and reported as a median.
	timeSetup := func() (time.Duration, error) {
		t0 := time.Now()
		extra, err := startRig(zm, size, cfg.Seed)
		d := time.Since(t0)
		if err == nil {
			extra.stop()
		}
		return d, err
	}
	setups, err := setupTimes(5, 20, timeSetup)
	if err != nil {
		return err
	}
	moreSetups := func(int) error {
		more, err := setupTimes(0, 8, timeSetup)
		setups = append(setups, more...)
		return err
	}
	rig, err := startRig(zm, size, cfg.Seed)
	if err != nil {
		return err
	}
	defer rig.stop()

	var phaseID uint64
	var iters []daemonIter
	judge := func(it daemonIter) bool {
		ok := true
		for _, ph := range it.phases() {
			r.count(ph.pairs, ph.failed)
			ok = ok && ph.failed == 0
		}
		return ok
	}
	untraced := cfg.Seconds
	if cfg.Trace {
		untraced = cfg.Seconds / 2
	}
	minIters := 3
	if cfg.Tiny {
		minIters = 1
	}
	samples, _, _, err := timedLoop(untraced, minIters, moreSetups, func(i int) (bool, error) {
		it, err := rig.iterate(size, &phaseID)
		if err != nil {
			return false, err
		}
		if i > 0 {
			iters = append(iters, it)
		}
		return judge(it), nil
	})
	if err != nil {
		return err
	}
	if !cfg.Trace {
		r.set("max_rss_mb", maxRSSMB())
	}
	var oracle struct{ pairs, missing, dup, unexpected, stray, ambiguous int }
	for _, it := range iters {
		for _, ph := range it.phases() {
			oracle.pairs += ph.pairs
			oracle.missing += ph.missing
			oracle.dup += ph.dup
			oracle.unexpected += ph.unexpected
			oracle.stray += ph.stray
			oracle.ambiguous += ph.ambiguous
		}
	}
	r.notes["oracle"] = map[string]int{"pairs": oracle.pairs, "missing": oracle.missing, "duplicated": oracle.dup,
		"unexpected": oracle.unexpected, "stray": oracle.stray, "either_outcome": oracle.ambiguous}
	r.gate("daemon.oracle", r.failed == 0, fmt.Sprintf("%d of %d (publication, connection) pairs wrong", r.failed, r.attempted))

	perIter := func(f func(it daemonIter) float64) []float64 {
		out := make([]float64, len(iters))
		for i, it := range iters {
			out[i] = f(it)
		}
		return out
	}
	satS := perIter(func(it daemonIter) float64 { return it.saturateS })
	costMetrics(r, samples)
	r.series("loadgen.lag_p99_ms", "ms", perIter(func(it daemonIter) float64 {
		return quantile(append(append([]float64(nil), it.light.lagMs...), it.heavy.lagMs...), 0.99)
	}))
	r.series("loadgen.delivery_p99_ms.light", "ms", perIter(func(it daemonIter) float64 { return quantile(it.light.latMs, 0.99) }))
	r.series("loadgen.delivery_p99_ms.heavy", "ms", perIter(func(it daemonIter) float64 { return quantile(it.heavy.latMs, 0.99) }))
	if !cfg.Trace {
		r.series("setup_s", "s", setups)
		r.series("run_s", "s", satS)
		r.series("delivery_p50_ms.light", "ms", perIter(func(it daemonIter) float64 { return quantile(it.light.latMs, 0.5) }))
		r.series("delivery_p50_ms.heavy", "ms", perIter(func(it daemonIter) float64 { return quantile(it.heavy.latMs, 0.5) }))
		r.series("deliveries_per_s.saturate", "1/s", perIter(func(it daemonIter) float64 {
			return float64(it.sat.deliveries) / it.saturateS
		}))
		return nil
	}
	return tracedDaemon(cfg, rig, size, &phaseID, median(satS), r, judge)
}

// tracedDaemon records every frame the edges send for the rest of the time
// budget, timing each WriteBurst, and replays the recorded frames into a
// standalone core.Router and through the wire codec.
func tracedDaemon(cfg config, rig *daemonRig, size daemonScale, phaseID *uint64, untracedSat float64, r *run, judge func(daemonIter) bool) error {
	log := newSpanLog(64, 20000)
	var satS, writeNs, perWrite, perRead, burstNs, ctlNs, encNs, decNs, probes, falseFrac []float64
	_, _, _, err := timedLoop(cfg.Seconds/2, 1, nil, func(i int) (bool, error) {
		start := make([]uint64, len(rig.edges))
		var readBefore []struct{ frames, pkts int }
		for x, e := range rig.edges {
			start[x] = e.state
			e.record, e.log, e.frames, e.writes, e.written = true, log, nil, tally{}, struct{ frames, pkts int }{}
			e.mu.Lock()
			readBefore = append(readBefore, e.readStats)
			e.mu.Unlock()
		}
		it, err := rig.iterate(size, phaseID)
		for _, e := range rig.edges {
			e.record = false
		}
		if err != nil {
			return false, err
		}
		ok := judge(it)
		if i == 0 {
			return ok, nil // warm-up
		}
		var w tally
		var wf, wp, rf, rp int
		var frames []recordedFrame
		for x, e := range rig.edges {
			w.n += e.writes.n
			w.ns += e.writes.ns
			wf += e.written.frames
			wp += e.written.pkts
			e.mu.Lock()
			rf += e.readStats.frames - readBefore[x].frames
			rp += e.readStats.pkts - readBefore[x].pkts
			e.mu.Unlock()
			frames = append(frames, e.frames...)
		}
		rep, err := replay(rig.zm, start, frames, log)
		if err != nil {
			return false, err
		}
		satS = append(satS, it.saturateS)
		writeNs = append(writeNs, w.mean())
		perWrite = append(perWrite, ratio(wp, wf))
		perRead = append(perRead, ratio(rp, rf))
		burstNs = append(burstNs, rep.burst.mean())
		ctlNs = append(ctlNs, rep.control.mean())
		encNs = append(encNs, rep.encode.mean())
		decNs = append(decNs, rep.decode.mean())
		probes = append(probes, float64(rep.bloomProbes))
		falseFrac = append(falseFrac, ratio(int(rep.bloomFalse), int(rep.bloomProbes)))
		return ok, nil
	})
	if err != nil {
		return err
	}
	r.gate("daemon.oracle.traced", r.failed == 0, fmt.Sprintf("%d of %d (publication, connection) pairs wrong", r.failed, r.attempted))
	r.series("transport.write_ns_per_frame", "ns", writeNs)
	r.series("transport.pkts_per_write", "pkt", perWrite)
	r.series("transport.pkts_per_read", "pkt", perRead)
	r.series("core.burst_ns_per_pkt", "ns", burstNs)
	r.series("core.control_ns_per_pkt", "ns", ctlNs)
	r.series("wire.encode_ns_per_pkt", "ns", encNs)
	r.series("wire.decode_ns_per_pkt", "ns", decNs)
	r.series("copss.bloom_probes", "count", probes)
	r.series("copss.bloom_false_frac", "ratio", falseFrac)
	r.set("tracing.overhead_s", median(satS)-untracedSat)
	r.notes["traced_run_s"] = median(satS)
	r.notes["untraced_run_s"] = untracedSat
	path := filepath.Join(cfg.Out, fmt.Sprintf("daemon-seed%d.trace.json", cfg.Seed))
	r.notes["chrome_trace"] = path
	return log.writeChrome(path)
}
