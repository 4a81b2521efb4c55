package main

import (
	"sort"
	"time"

	"github.com/icn-gaming/gcopss/internal/cd"
	"github.com/icn-gaming/gcopss/internal/core"
	"github.com/icn-gaming/gcopss/internal/ndn"
	"github.com/icn-gaming/gcopss/internal/obs"
	"github.com/icn-gaming/gcopss/internal/wire"
)

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

type replayResult struct {
	burst, control, encode, decode tally
	bloomProbes, bloomFalse        uint64
}

// replay feeds the recorded frames, in the order they were written, to a
// standalone router set up like the daemon's (RP for the five regions, one
// client face per edge, the edges' subscriptions at the start of the
// recording), and through the wire burst codec.
func replay(zm *zoneModel, startState []uint64, frames []recordedFrame, log *spanLog) (replayResult, error) {
	var res replayResult
	sort.SliceStable(frames, func(i, j int) bool { return frames[i].write < frames[j].write })
	rt := core.NewRouter("R1", core.WithFlightRecorder(obs.NewFlight(1024)))
	now := time.Now()
	for x := range startState {
		rt.AddFace(ndn.FaceID(x+1), core.FaceClient)
	}
	if _, err := rt.BecomeRP(zm.rp); err != nil {
		return res, err
	}
	var sink ndn.SliceSink
	for x, st := range startState {
		var cds []cd.CD
		for b, c := range zm.subCDs {
			if st&(1<<b) != 0 {
				cds = append(cds, c)
			}
		}
		if len(cds) > 0 {
			sink.Reset()
			rt.HandlePacketTo(now, ndn.FaceID(x+1), &wire.Packet{Type: wire.TypeSubscribe, CDs: cds}, &sink)
		}
	}
	root := log.reserve()
	r0 := time.Now()
	var buf []byte
	for _, f := range frames {
		face := ndn.FaceID(f.edge + 1)
		sampled := log.sample()
		for i := 0; i < len(f.pkts); {
			j := i + 1
			multicast := f.pkts[i].Type == wire.TypeMulticast
			if multicast {
				for j < len(f.pkts) && f.pkts[j].Type == wire.TypeMulticast {
					j++
				}
			}
			sink.Reset()
			t0 := time.Now()
			rt.HandleBurst(now, face, f.pkts[i:j], &sink)
			d := time.Since(t0)
			if multicast {
				res.burst.addN(j-i, d)
			} else {
				res.control.add(d)
			}
			if sampled {
				log.add("core.Router.HandleBurst", root, t0, t0.Add(d))
			}
			i = j
		}
		t0 := time.Now()
		out, err := wire.AppendEncodeBurst(buf[:0], f.pkts)
		d := time.Since(t0)
		if err != nil {
			return res, err
		}
		buf = out
		res.encode.addN(len(f.pkts), d)
		if sampled {
			log.add("wire.AppendEncodeBurst", root, t0, t0.Add(d))
		}
		t0 = time.Now()
		body, n := buf, 0
		for len(body) > 0 {
			_, used, err := wire.Decode(body)
			if err != nil {
				return res, err
			}
			body = body[used:]
			n++
		}
		d = time.Since(t0)
		res.decode.addN(n, d)
		if sampled {
			log.add("wire.Decode", root, t0, t0.Add(d))
		}
	}
	log.addID(root, "replay", 0, r0, time.Now())
	res.bloomProbes, res.bloomFalse = rt.ST().BloomStats()
	return res, nil
}
