package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"lawgate/internal/netsim"
	"lawgate/internal/netsim/topo"
)

// The sim workload: one sharded run of the campus+ISP+Tor composite.
// Hosts stream Poisson traffic to acking campus gateways, gateways
// stream CBR trunks to their ISP edge, and edges stream CBR over the
// bandwidth-capped edge-core trunks. Each ISP edge carries a tap
// collecting per-window byte rates — where the E3 watermark detector
// sits in the paper's Section IV-B.
const (
	simNodes       = 50000
	simPartitions  = 8
	simHosts       = 20
	simEdges       = 4
	simRelays      = 8
	simHorizon     = 500 * time.Millisecond
	simFlowUntil   = 400 * time.Millisecond
	simTrunkBps    = 50_000_000
	simTapWindow   = 10 * time.Millisecond
	simMinRuns     = 2
	simHeapSampleT = 20 * time.Millisecond
)

// rateTap is the edge detector's rate collection: bytes seen per
// window. It is attached to one node, so it stays partition-local.
type rateTap struct {
	bins [int(simHorizon/simTapWindow) + 1]int64
}

func (t *rateTap) Observe(_ netsim.Direction, at time.Duration, pkt *netsim.Packet) {
	if b := int(at / simTapWindow); b < len(t.bins) {
		t.bins[b] += int64(pkt.Header.SizeBytes)
	}
}

// Traced wrappers time each user callback the engine calls. Each
// wrapper instance belongs to one node, so its counters are
// partition-local and summed after the run.
type callTimer struct {
	clk   clock
	ns    int64
	calls int64
}

type timedPattern struct {
	callTimer
	p netsim.TrafficPattern
}

func (t *timedPattern) NextGap(r *rand.Rand) time.Duration {
	s := t.clk.now()
	g := t.p.NextGap(r)
	t.ns += t.clk.now() - s
	t.calls++
	return g
}

func (t *timedPattern) PacketSize(r *rand.Rand) int {
	s := t.clk.now()
	n := t.p.PacketSize(r)
	t.ns += t.clk.now() - s
	t.calls++
	return n
}

type timedHandler struct {
	callTimer
	h netsim.Handler
}

func (t *timedHandler) HandlePacket(n *netsim.Network, pkt *netsim.Packet) {
	s := t.clk.now()
	t.h.HandlePacket(n, pkt)
	t.ns += t.clk.now() - s
	t.calls++
}

type timedTap struct {
	callTimer
	t netsim.Tap
}

func (t *timedTap) Observe(dir netsim.Direction, at time.Duration, pkt *netsim.Packet) {
	s := t.clk.now()
	t.t.Observe(dir, at, pkt)
	t.ns += t.clk.now() - s
	t.calls++
}

// simBuild is one set-up sharded network and its instrumentation.
type simBuild struct {
	net      *netsim.ShardedNetwork
	nodes    int
	taps     []*rateTap
	patterns []*timedPattern
	handlers []*timedHandler
	ttaps    []*timedTap
	freeze   time.Duration
}

// gatewayAck answers every packet a campus gateway receives (the hosts'
// upstream flows) with a 60-byte ack.
func gatewayAck(gw netsim.NodeID) netsim.Handler {
	return netsim.HandlerFunc(func(n *netsim.Network, pkt *netsim.Packet) {
		_ = n.Send(&netsim.Packet{Header: netsim.Header{
			Src: gw, Dst: pkt.Header.Src, Flow: "ack",
			Proto: netsim.ProtoUDP, SizeBytes: 60,
		}})
	})
}

// buildSim sets up the topology, applies it to a sharded network,
// attaches the taps, starts every flow and freezes the network.
func buildSim(seed int64, traced bool, clk clock) (*simBuild, error) {
	campuses := (simNodes - simEdges - simRelays - 1) / (simHosts + 1)
	g, err := topo.Composite(topo.CompositeConfig{
		Campuses: campuses, HostsPerCampus: simHosts,
		ISPEdges: simEdges, TorRelays: simRelays,
		TrunkBandwidthBps: simTrunkBps,
	})
	if err != nil {
		return nil, err
	}
	b := &simBuild{net: netsim.NewShardedNetwork(seed, simPartitions), nodes: len(g.Nodes)}
	o := b.net
	if err := o.SetPartitionFunc(g.PartitionFunc(simPartitions)); err != nil {
		return nil, err
	}
	gateways := make(map[netsim.NodeID]bool, campuses)
	for c := 0; c < campuses; c++ {
		gateways[netsim.NodeID(fmt.Sprintf("campus%d-gw", c))] = true
	}
	handler := func(id netsim.NodeID) netsim.Handler {
		if !gateways[id] {
			return nil
		}
		h := gatewayAck(id)
		if traced {
			th := &timedHandler{callTimer: callTimer{clk: clk}, h: h}
			b.handlers = append(b.handlers, th)
			return th
		}
		return h
	}
	if err := g.ApplyTo(o, handler); err != nil {
		return nil, err
	}
	edge := func(e int) netsim.NodeID { return netsim.NodeID(fmt.Sprintf("isp-edge%d", e)) }
	for e := 0; e < simEdges; e++ {
		t := &rateTap{}
		b.taps = append(b.taps, t)
		var tap netsim.Tap = t
		if traced {
			tt := &timedTap{callTimer: callTimer{clk: clk}, t: t}
			b.ttaps = append(b.ttaps, tt)
			tap = tt
		}
		if err := o.AttachTap(edge(e), tap); err != nil {
			return nil, err
		}
	}
	start := func(src, dst netsim.NodeID, id netsim.FlowID, p netsim.TrafficPattern) error {
		pn, err := o.PartitionNet(src)
		if err != nil {
			return err
		}
		if traced {
			tp := &timedPattern{callTimer: callTimer{clk: clk}, p: p}
			b.patterns = append(b.patterns, tp)
			p = tp
		}
		f := &netsim.Flow{Net: pn, Src: src, Dst: dst, ID: id, Pattern: p, Until: simFlowUntil}
		return f.Start()
	}
	for c := 0; c < campuses; c++ {
		gw := netsim.NodeID(fmt.Sprintf("campus%d-gw", c))
		for h := 0; h < simHosts; h++ {
			host := netsim.NodeID(fmt.Sprintf("campus%d/h%d", c, h))
			if err := start(host, gw, netsim.FlowID(fmt.Sprintf("up-%d-%d", c, h)),
				&netsim.Poisson{MeanGap: 20 * time.Millisecond, Size: 200}); err != nil {
				return nil, err
			}
		}
		if err := start(gw, edge(c%simEdges), netsim.FlowID(fmt.Sprintf("trunk-%d", c)),
			&netsim.CBR{Gap: 5 * time.Millisecond, Size: 800}); err != nil {
			return nil, err
		}
	}
	for e := 0; e < simEdges; e++ {
		if err := start(edge(e), "isp-core", netsim.FlowID(fmt.Sprintf("core-%d", e)),
			&netsim.CBR{Gap: time.Millisecond, Size: 1200}); err != nil {
			return nil, err
		}
	}
	t0 := time.Now()
	if err := o.Freeze(); err != nil {
		return nil, err
	}
	b.freeze = time.Since(t0)
	return b, nil
}

// simResult is one run's measurement and its deterministic outputs.
type simResult struct {
	traced    bool
	nodes     int
	setup     time.Duration
	freeze    time.Duration
	wall      time.Duration
	use       usage
	heapMB    float64
	events    int64
	totals    netsim.Totals
	tapBytes  int64
	callbacks [3]callTimer // traffic, handler, tap
}

func (r *simResult) eventsPerS() float64 { return float64(r.events) / r.wall.Seconds() }

// simOnce sets up and runs the simulation once.
func simOnce(cfg config, clk clock, traced bool) (*simResult, error) {
	runtime.GC()
	t0 := time.Now()
	b, err := buildSim(cfg.seed, traced, clk)
	if err != nil {
		return nil, err
	}
	res := &simResult{traced: traced, nodes: b.nodes, setup: time.Since(t0), freeze: b.freeze}
	heap := startHeapSampler(clk, simHeapSampleT)
	u0 := readUsage()
	t1 := time.Now()
	err = b.net.RunUntil(simHorizon, cfg.nproc)
	res.wall = time.Since(t1)
	res.use = readUsage().sub(u0)
	res.heapMB = heap.stopMB(math.MaxInt64)
	if err != nil {
		return nil, err
	}
	res.events = b.net.Steps()
	res.totals = b.net.Totals()
	for _, t := range b.taps {
		for _, v := range t.bins {
			res.tapBytes += v
		}
	}
	for _, p := range b.patterns {
		res.callbacks[0].ns += p.ns
		res.callbacks[0].calls += p.calls
	}
	for _, h := range b.handlers {
		res.callbacks[1].ns += h.ns
		res.callbacks[1].calls += h.calls
	}
	for _, t := range b.ttaps {
		res.callbacks[2].ns += t.ns
		res.callbacks[2].calls += t.calls
	}
	return res, nil
}

// runSim repeats the simulation until the run's seconds are spent (at
// least simMinRuns times; a traced run alternates untraced and traced
// runs) and checks that every repetition produced identical totals.
func runSim(cfg config) (*outcome, error) {
	o := newOutcome()
	clk := newClock()
	var runs []*simResult
	began := time.Now()
	for i := 0; i < simMinRuns || time.Since(began).Seconds() < cfg.seconds; i++ {
		r, err := simOnce(cfg, clk, cfg.trace && i%2 == 1)
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	first := runs[0]
	for i, r := range runs {
		o.attempted++
		if r.events != first.events || r.totals != first.totals || r.tapBytes != first.tapBytes {
			o.failed++
			o.violate("sim run %d: %d events, totals %+v, tap %d bytes; run 0: %d events, totals %+v, tap %d bytes",
				i, r.events, r.totals, r.tapBytes, first.events, first.totals, first.tapBytes)
		}
	}
	if first.events == 0 || first.totals.Delivered == 0 || first.tapBytes == 0 {
		o.violate("sim delivered nothing: %d events, totals %+v", first.events, first.totals)
	}
	o.inputs["nodes"] = first.nodes
	o.inputs["partitions"] = simPartitions
	o.inputs["workers"] = cfg.nproc
	o.inputs["horizon_ms"] = simHorizon.Milliseconds()
	o.inputs["runs"] = len(runs)
	o.inputs["events"] = first.events

	pick := func(traced bool) []*simResult {
		var out []*simResult
		for _, r := range runs {
			if r.traced == traced {
				out = append(out, r)
			}
		}
		return out
	}
	med := func(rs []*simResult, f func(*simResult) float64) float64 {
		v := make([]float64, len(rs))
		for i, r := range rs {
			v[i] = f(r)
		}
		return median(v)
	}
	plain := pick(false)
	if !cfg.trace {
		o.set("setup_s", med(plain, func(r *simResult) float64 { return r.setup.Seconds() }), "s")
		// The simulator's user waits for a whole run: its latency is
		// one RunUntil, its throughput the events per second of it.
		o.set("latency_p50_us", med(plain, func(r *simResult) float64 { return float64(r.wall.Nanoseconds()) / 1e3 }), "us")
		o.set("throughput_per_s", med(plain, (*simResult).eventsPerS), "1/s")
		o.set("cpu_us_per_op", med(plain, func(r *simResult) float64 {
			return float64(r.use.cpu.Nanoseconds()) / 1e3 / float64(r.events)
		}), "us")
		o.set("allocs_per_op", med(plain, func(r *simResult) float64 {
			return float64(r.use.mallocs) / float64(r.events)
		}), "count")
		o.set("peak_heap_mb", med(plain, func(r *simResult) float64 { return r.heapMB }), "MB")
		return o, nil
	}

	zeroLayers(o)
	traced := pick(true)
	var cb [3]callTimer
	var cpu time.Duration
	for _, r := range traced {
		for k := range cb {
			cb[k].ns += r.callbacks[k].ns
			cb[k].calls += r.callbacks[k].calls
		}
		cpu += r.use.cpu
	}
	o.setLayer("netsim.events", float64(first.events))
	o.setLayer("netsim.delivered", float64(first.totals.Delivered))
	o.setLayer("netsim.dropped", float64(first.totals.Dropped+first.totals.FaultDropped))
	o.setLayer("netsim.traffic_ns_per_call", ratio(float64(cb[0].ns), float64(cb[0].calls)))
	o.setLayer("netsim.handler_ns_per_call", ratio(float64(cb[1].ns), float64(cb[1].calls)))
	o.setLayer("netsim.tap_ns_per_call", ratio(float64(cb[2].ns), float64(cb[2].calls)))
	o.setLayer("netsim.engine_cpu_share", 1-ratio(float64(cb[0].ns+cb[1].ns+cb[2].ns), float64(cpu.Nanoseconds())))
	o.setLayer("netsim.allocs_per_event", med(traced, func(r *simResult) float64 {
		return float64(r.use.mallocs) / float64(r.events)
	}))
	o.setLayer("netsim.bytes_per_event", med(traced, func(r *simResult) float64 {
		return float64(r.use.allocBytes) / float64(r.events)
	}))
	o.setLayer("netsim.freeze_s", med(runs, func(r *simResult) float64 { return r.freeze.Seconds() }))
	o.setLayer("trace.events_per_s_overhead", med(traced, (*simResult).eventsPerS)-med(plain, (*simResult).eventsPerS))
	return o, nil
}
