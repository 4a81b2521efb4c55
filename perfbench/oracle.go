package main

import (
	"math"
	"sort"
)

// judge is the delivery oracle. For each publication and connection it
// decides from the edges' own send logs, by cd prefix rules, whether the
// connection must, must not, or may receive the publication:
//
//   - On the publishing connection the router sees subscription changes and
//     publications in stream order, so the edge's subscription state at the
//     publication decides.
//   - On the other connection the order is fixed only by time. A
//     subscription change was applied before the publication if the
//     change's connection got back the echo of a later publication of its
//     own before the publication was written; after it, if the change was
//     written after the publication's first receipt anywhere. The
//     connection must (or must not) receive the publication when every
//     subscription state left possible agrees; otherwise either outcome is
//     correct.
//
// A duplicate or a receipt from another phase is always a failure.
func (rig *daemonRig) judge(start int64) phaseOutcome {
	out := phaseOutcome{start: start}
	type key struct{ edge, k int }
	counts := make([]map[key]int, len(rig.edges))
	first := map[key]int64{}                // first receipt of each publication anywhere
	echo := make([][]int64, len(rig.edges)) // own echo time of each publication
	for x, e := range rig.edges {
		counts[x] = map[key]int{}
		echo[x] = make([]int64, len(e.pubs))
	}
	for x, e := range rig.edges {
		e.mu.Lock()
		recv := append([]receipt(nil), e.recv...)
		e.mu.Unlock()
		for _, r := range recv {
			ph, k, id := splitSeq(r.seq)
			if ph != e.phaseID || id >= len(rig.edges) || k >= len(rig.edges[id].pubs) {
				out.stray++
				continue
			}
			kk := key{id, k}
			counts[x][kk]++
			out.deliveries++
			if t, ok := first[kk]; !ok || r.at < t {
				first[kk] = r.at
			}
			if id == x && echo[x][k] == 0 {
				echo[x][k] = r.at
			}
			out.latMs = append(out.latMs, float64(r.at-rig.edges[id].pubs[k].due)/1e6)
			if r.at > out.lastRecv {
				out.lastRecv = r.at
			}
		}
	}
	// upper[x][i] bounds when the router applied edge x's control event i.
	upper := make([][]int64, len(rig.edges))
	for x, e := range rig.edges {
		upper[x] = make([]int64, len(e.ctl))
		next := int64(math.MaxInt64)
		for i := len(e.ctl) - 1; i >= 0; i-- {
			// The router applies an edge's controls in stream order, so a
			// later control's bound also bounds every earlier one.
			if c := e.ctl[i]; c.nextPub >= 0 && echo[x][c.nextPub] != 0 && echo[x][c.nextPub] < next {
				next = echo[x][c.nextPub]
			}
			upper[x][i] = next
		}
	}
	for y, ey := range rig.edges {
		for k, p := range ey.pubs {
			kk := key{y, k}
			out.lagMs = append(out.lagMs, float64(p.write-p.due)/1e6)
			hi, ok := first[kk]
			if !ok {
				hi = math.MaxInt64
			}
			for x, ex := range rig.edges {
				out.pairs++
				n := counts[x][kk]
				var must, mustNot bool
				if x == y {
					must = ownCovered(ey, k, rig.zm.cover[p.zone])
					mustNot = !must
				} else {
					must, mustNot = crossVerdict(ex, upper[x], p.write, hi, rig.zm.cover[p.zone])
				}
				switch {
				case n > 1:
					out.dup++
					out.failed++
				case must && n == 0:
					out.missing++
					out.failed++
				case mustNot && n == 1:
					out.unexpected++
					out.failed++
				case !must && !mustNot:
					out.ambiguous++
				}
			}
		}
	}
	out.failed += out.stray
	return out
}

// ownCovered is the publishing edge's own subscription state at its k-th
// publication: the state after the last control event written before it.
func ownCovered(e *edge, k int, cover uint64) bool {
	state := e.startState
	for _, c := range e.ctl {
		if c.nextPub < 0 || c.nextPub > k {
			break
		}
		state = c.state
	}
	return state&cover != 0
}

// crossVerdict decides whether edge x must or must not receive a
// publication written at lo and first received at hi.
func crossVerdict(x *edge, upper []int64, lo, hi int64, cover uint64) (must, mustNot bool) {
	// Controls [0, a) were applied before the publication; controls
	// [b, n) after it; the ones in between may have been either.
	n := len(x.ctl)
	a := sort.Search(n, func(i int) bool { return upper[i] >= lo })
	b := sort.Search(n, func(i int) bool { return x.ctl[i].write > hi })
	if b < a {
		b = a
	}
	anyCovered, anyUncovered := false, false
	for k := a; k <= b; k++ {
		state := x.startState
		if k > 0 {
			state = x.ctl[k-1].state
		}
		if state&cover != 0 {
			anyCovered = true
		} else {
			anyUncovered = true
		}
	}
	return anyCovered && !anyUncovered, anyUncovered && !anyCovered
}
