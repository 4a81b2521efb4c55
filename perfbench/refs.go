package main

import "github.com/icn-gaming/gcopss/internal/testbed"

// defaultSeed is the seed the recorded references were made with. They are
// also recorded for the held-out seed 7, kept for claims, so a change is
// checked on a seed nobody tuned on.
const defaultSeed = 42

// refKey names one recorded reference: seed, player count and backbone
// size.
type refKey struct {
	seed    int64
	players int
	small   bool
}

// backboneRefs are RunBackbone's observables on the paper backbone,
// recorded at the commit that introduced the benchmark. Any change to them
// is a behaviour change.
var backboneRefs = map[refKey]testbed.BackboneObservables{
	{seed: 42, players: 2000}: {Published: 4136, Deliveries: 1282025, DeliveryHash: 0x756d0a33e54bd3fc, LatencyMeanBits: 0x40b39e1ccad710a1, RPDeliveriesOld: 4031, PacketEvents: 1730572, Bytes: 497982465},
	{seed: 42, players: 150}:  {Published: 315, Deliveries: 14768, DeliveryHash: 0x9dada0022463c8cb, LatencyMeanBits: 0x405442f921739087, RPDeliveriesOld: 315, PacketEvents: 47771, Bytes: 12261680},
	{seed: 7, players: 2000}:  {Published: 4152, Deliveries: 1249367, DeliveryHash: 0x7175dfb779aaba4a, LatencyMeanBits: 0x40b40d5b930df5f3, RPDeliveriesOld: 4040, PacketEvents: 1719322, Bytes: 498206621},
	{seed: 7, players: 150}:   {Published: 317, Deliveries: 18619, DeliveryHash: 0xf2d88cead596b632, LatencyMeanBits: 0x40549de0594d9203, RPDeliveriesOld: 317, PacketEvents: 57520, Bytes: 15375055},
}

// simRefs are the sim-paper fingerprints (every headline number of Tables
// I–III and Figs 5–6, exact bits) recorded at the same commit, keyed by the
// per-iteration seed (subSeed).
var simRefs = map[int64]string{
	701:  "fc19f7864e1b09f6",
	702:  "9256e31241c35c3b",
	703:  "3b18fe2b170c15dd",
	704:  "e5d4f54c65b6f35e",
	705:  "71a2e4542c59bd82",
	706:  "155bae87bc2688ac",
	707:  "a3a29f78d132acf1",
	708:  "22c700f4cc35dc68",
	709:  "f4e7e92d07a333c8",
	710:  "cfd6a468a959b00c",
	711:  "0562cd819b2ad662",
	712:  "30af6ea08b2faef5",
	713:  "3371efb48a97cdcc",
	4201: "1952df60771d91d8",
	4202: "dcaee705a0707227",
	4203: "fc5a382e2c9a40cc",
	4204: "344c0aa9c1a44b93",
	4205: "bc53d4540367347c",
	4206: "e4d96a8a3e3f750e",
	4207: "cf62db976389868c",
	4208: "fce45aa2f2d73fbc",
	4209: "d0436ed66d0444be",
	4210: "0b840823b22fd7d5",
	4211: "edb095e86c133a3b",
	4212: "706e9b14f7345589",
	4213: "3a8ecda9c6a1e6e0",
}
