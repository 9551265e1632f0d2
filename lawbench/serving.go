package main

import (
	"context"
	"errors"
	"fmt"
	"hash/maphash"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"lawgate/internal/ledger"
	"lawgate/internal/legal"
	"lawgate/internal/server"
)

// Offered open-loop rates, in requests per second, fixed at the commit
// that introduced this benchmark: about a tenth of each workload's own
// closed-loop peak (the saturation phase: two connections, client and
// server in one process) on a 2-core host, the rate at which tail
// latency there was least sensitive to interference from other guests
// (README.md). They are never re-derived: a faster server shows up as
// lower latency and CPU per request at the same offered load.
const (
	cleanRate = 2000
	chaosRate = 1500
)

// servingSpec is one serving workload's fixed definition.
type servingSpec struct {
	batch     bool
	rate      float64 // open-loop arrivals/s; 0 = closed loop only
	stream    streamSpec
	batchZipf float64
	rounds    int // fresh servers per run; metrics are medians over rounds
}

var servingSpecs = map[string]servingSpec{
	"clean": {
		rate: cleanRate, rounds: 5,
		stream: streamSpec{zipfS: 1.1, zipfV: 2000, namePool: 1 << 20, auditorEvery: 50},
	},
	"chaos": {
		rate: chaosRate, rounds: 5,
		// One request in ten is hostile and a doctrine swap lands every
		// half second of offered load.
		stream: streamSpec{zipfS: 1.1, zipfV: 2000, namePool: 1 << 20, auditorEvery: 50,
			hostileEvery: 10, swapEvery: chaosRate / 2},
	},
	"batch": {batch: true, batchZipf: 1.3, rounds: 10},
}

const (
	// Warm-up traffic per server, part of set-up: evaluates, or batches.
	warmEvaluates = 2000
	warmBatches   = 64
	// heapBatchesPerS fixes the work peak_heap_mb is taken over on batch:
	// the round's first heapBatchesPerS batches per second of round,
	// about two thirds of what the slowest development run answered.
	// The ruling cache grows with every batch answered, so a peak over
	// the whole closed loop would grow with the server's speed.
	heapBatchesPerS = 640
	// oversizeBytes is the hostile body size; it exceeds the server's
	// default 1 MiB cap.
	oversizeBytes = 2 << 20
	// lagBound: a run is invalid when the generator's median lateness
	// reaches this share of latency_p50_us.
	lagBound = 0.25
	// stageSumTolerance bounds, in the traced run on clean and chaos,
	// |sum of the five stages - latency| as a share of the latency,
	// summed over the traced evaluates answered 200.
	stageSumTolerance = 0.25
)

type phaseKind int

const (
	openPhase phaseKind = iota
	closedPhase
)

// phase is one timed interval against one server.
type phase struct {
	kind   phaseKind
	secs   float64 // duration
	lo, hi int     // request ids, assigned as the phase runs
	start  int64
	end    int64
	use    usage
}

// instance is one server set up, driven and drained.
type instance struct {
	round    int
	traced   bool
	heapMB   float64 // peak heap over the round's fixed work
	warm     int     // warm-up requests
	warmLo   int
	warmHi   int
	phases   []*phase
	setup    time.Duration
	srv      *server.Server
	tr       *tracer
	hs       *http.Server
	serveErr chan error
	addr     string
	// cps are the auditor's checkpoint replies from this server.
	cps []checkpointReply
	// led is a traced round's drained ledger, kept for the replays.
	led *ledger.Ledger
}

// servingRun is one serving workload run: its inputs, traffic and the
// servers it drives.
type servingRun struct {
	cfg   config
	spec  servingSpec
	t     *traffic
	r     *rand.Rand
	zipf  *rand.Zipf
	insts []*instance
	next  int // the next unused request id
	ref   *reference
}

func runServing(cfg config, spec servingSpec) (*outcome, error) {
	s := &servingRun{cfg: cfg, spec: spec, r: rand.New(rand.NewSource(cfg.seed))}
	in := &inputs{}
	shapes := tableShapes()
	if spec.batch {
		shapes = batchShapes()
	}
	var err error
	if in.tmpl, err = templates(shapes); err != nil {
		return nil, err
	}
	if !spec.batch {
		s.zipf = rand.NewZipf(s.r, spec.stream.zipfS, spec.stream.zipfV, spec.stream.namePool-1)
	}
	s.t = &traffic{clk: newClock(), in: in, book: &book{traced: cfg.trace}, hseed: maphash.MakeSeed()}
	s.t.oversized = []byte(`{"Name": "` + strings.Repeat("x", oversizeBytes) + `"}`)
	s.t.poison = append([]byte(`{"Name":"`+poisonName+`"`), in.tmpl[0].rest...)
	s.plan()

	doctrines := []legal.ContainerDoctrine{legal.ContainerPerFile}
	if spec.stream.swapEvery > 0 {
		// During hot swaps either doctrine's ruling is correct.
		doctrines = append(doctrines, legal.ContainerSingle)
	}
	s.ref = newReference(in, s.t.hseed, doctrines...)
	o := newOutcome()
	for _, inst := range s.insts {
		if err := s.drive(inst); err != nil {
			return nil, err
		}
		s.check(o, inst)
		inst.srv, inst.hs = nil, nil
	}
	for _, e := range s.t.cpErrs {
		o.violate("%s", e)
	}
	if len(o.violations) > 20 {
		n := len(o.violations)
		o.violations = append(o.violations[:20], fmt.Sprintf("... and %d more", n-20))
	}
	s.reportInputs(o)
	if cfg.trace {
		if err := s.layerMetrics(o); err != nil {
			return nil, err
		}
	} else {
		s.endToEnd(o)
	}
	return o, nil
}

// plan lays out the rounds and their phases. A run is spec.rounds
// rounds of equal length; each round sets up a fresh server, warms it,
// runs the workload's phases and drains it. In a traced run every
// second round is traced, so traced and untraced rounds interleave.
// Requests are generated from the seed as the rounds run (see gen).
func (s *servingRun) plan() {
	round := s.cfg.seconds / float64(s.spec.rounds)
	kinds, fracs := []phaseKind{openPhase, closedPhase}, []float64{0.6, 0.4}
	warm := warmEvaluates
	if s.spec.batch {
		kinds, fracs, warm = []phaseKind{closedPhase}, []float64{1}, warmBatches
	}
	for i := 0; i < s.spec.rounds; i++ {
		inst := &instance{round: i, traced: s.cfg.trace && i%2 == 1, warm: warm}
		for j, k := range kinds {
			inst.phases = append(inst.phases, &phase{kind: k, secs: fracs[j] * round})
		}
		s.insts = append(s.insts, inst)
	}
	if s.spec.batch {
		// The shapes' popularity ranking is part of the workload's
		// definition, not of its seed: with a seeded ranking, which few
		// shapes head the Zipf draw (a quarter of all slots go to the
		// first) changed the work per ruling from seed to seed. The
		// seed draws the batches from it.
		s.t.in.batchOrder = rand.New(rand.NewSource(batchOrderSeed)).Perm(len(s.t.in.tmpl))
		s.t.in.batchSeed = s.r.Uint64()
		s.t.in.batchZipf = s.spec.batchZipf
	}
}

// batchOrderSeed fixes the batch population's popularity ranking.
const batchOrderSeed = 0x1a3b

// batchIndexLimit bounds the batches of one warm-up or closed loop.
// Batch keys name every slot of a run uniquely: a round's warm-up
// batches are round*2*batchIndexLimit + index, its closed loop's follow
// from batchIndexLimit above that.
const batchIndexLimit = 1 << 21

// gen returns the request generator of one round's warm-up (p == nil)
// or of one of its phases. Warm-up and open phases have a fixed length
// and draw in order from the run's generator; a closed-loop phase sends
// as many requests as the server answers in its time, so it draws from
// a generator of its own, seeded by the seed and the round. The same
// seed therefore sends the same requests however fast the server is.
func (s *servingRun) gen(inst *instance, p *phase) func() desc {
	if s.spec.batch {
		key := int32(inst.round * 2 * batchIndexLimit)
		if p != nil {
			key += batchIndexLimit
		}
		return func() desc {
			d := desc{op: opBatch, key: key}
			key++
			return d
		}
	}
	g := &streamGen{r: s.r, z: s.zipf, spec: s.spec.stream}
	switch {
	case p == nil:
		g.spec = streamSpec{}
	case p.kind == closedPhase:
		g.r = rand.New(rand.NewSource(s.cfg.seed ^ int64(inst.round+1)*0x5851f42d4c957f2d))
		g.z = rand.NewZipf(g.r, s.spec.stream.zipfS, s.spec.stream.zipfV, s.spec.stream.namePool-1)
	}
	return g.next
}

// hook is the servers' EvalHook: it stamps the traced request's
// evaluation-slot entry and panics on the poisoned action.
func (s *servingRun) hook(ctx context.Context, _ string, a *legal.Action) {
	if s.t.book.traced {
		if id, ok := ctx.Value(reqIDKey{}).(int); ok {
			s.t.book.span(id).hook = s.t.clk.now()
		}
	}
	if a.Name == poisonName {
		panic("lawbench: poisoned action")
	}
}

// start builds and starts one server. Untraced servers run exactly as
// lawgated does (Server.Serve on a plain listener); traced ones are
// served through the benchmark's handler and listener wrappers.
func (s *servingRun) start(inst *instance) error {
	srv, err := server.New(server.WithTenants("default"), server.WithEvalHook(s.hook))
	if err != nil {
		return err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	inst.srv = srv
	inst.addr = l.Addr().String()
	inst.serveErr = make(chan error, 1)
	if !inst.traced {
		go func() { inst.serveErr <- srv.Serve(l) }()
		return nil
	}
	inst.tr = &tracer{clk: s.t.clk, book: s.t.book}
	inst.hs = &http.Server{
		Handler:           tracedHandler{next: srv.Handler(), tr: inst.tr},
		ConnContext:       withConn,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       60 * time.Second,
	}
	go func() { inst.serveErr <- inst.hs.Serve(countingListener{Listener: l, tr: inst.tr}) }()
	return nil
}

// stop drains one server the way lawgated does on SIGTERM.
func (s *servingRun) stop(inst *instance) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if inst.hs != nil {
		if err := inst.hs.Shutdown(ctx); err != nil {
			return err
		}
	}
	if err := inst.srv.Shutdown(ctx); err != nil {
		return err
	}
	if err := <-inst.serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("serve: %w", err)
	}
	return nil
}

// drive sets one server up, runs its phases and drains it.
func (s *servingRun) drive(inst *instance) error {
	t := s.t
	t.tagIDs = inst.traced
	// Collect the previous round's server first, so its garbage is not
	// charged to this round's set-up.
	runtime.GC()
	t0 := time.Now()
	if err := s.start(inst); err != nil {
		return err
	}
	conns := make([]*conn, s.cfg.nproc)
	for i := range conns {
		conns[i] = newConn(inst.addr)
	}
	defer func() {
		for _, c := range conns {
			c.close()
		}
	}()
	inst.warmLo, inst.warmHi = s.next, s.next+inst.warm
	t.book.begin(inst.warmLo, s.gen(inst, nil))
	t.book.reserve(inst.warmHi)
	if got := t.closedLoop(conns, inst.warmLo, inst.warmHi, 0); got != inst.warmHi {
		return fmt.Errorf("warm-up sent %d of %d requests", got-inst.warmLo, inst.warm)
	}
	inst.setup = time.Since(t0)
	var sampler *queueSampler
	if inst.traced {
		sampler = startQueueSampler(inst.srv)
	}
	s.next = inst.warmHi
	for j, p := range inst.phases {
		p.lo = s.next
		t.book.begin(p.lo, s.gen(inst, p))
		if p.kind == openPhase {
			p.hi = p.lo + int(s.spec.rate*p.secs)
			t.book.reserve(p.hi)
		}
		runtime.GC()
		// The round's peak heap is taken over a fixed amount of work:
		// the open loop, or the first batches of batch's closed loop.
		var heap *heapSampler
		if j == 0 {
			heap = startHeapSampler(t.clk, 20*time.Millisecond)
		}
		u0 := readUsage()
		dur := int64(p.secs * float64(time.Second))
		p.start = t.clk.now() + int64(time.Millisecond)
		if p.kind == openPhase {
			t.openLoop(conns, p.lo, p.hi, p.start, int64(float64(time.Second)/s.spec.rate))
		} else {
			limit := maxIDs
			if s.spec.batch {
				limit = p.lo + batchIndexLimit
			}
			p.hi = t.closedLoop(conns, p.lo, limit, p.start+dur)
		}
		s.next = p.hi
		p.end = t.clk.now()
		p.use = readUsage().sub(u0)
		if heap != nil {
			until := int64(math.MaxInt64)
			if k := int(heapBatchesPerS * p.secs); s.spec.batch && p.hi-p.lo >= k {
				until = t.book.rec(p.lo + k - 1).done
			}
			inst.heapMB = heap.stopMB(until)
		}
	}
	inst.cps, t.cps = t.cps, nil
	t.lastSize.Store(0)
	if inst.traced {
		inst.tr.queueMax = sampler.stop()
		if err := inst.tr.readLive(conns[0]); err != nil {
			return err
		}
	}
	for _, c := range conns {
		c.close()
	}
	return s.stop(inst)
}

// ranges lists an instance's record ranges: warm-up, then each phase.
func (inst *instance) ranges() [][2]int {
	out := [][2]int{{inst.warmLo, inst.warmHi}}
	for _, p := range inst.phases {
		out = append(out, [2]int{p.lo, p.hi})
	}
	return out
}

// check runs the correctness gate over every request of one drained
// round: statuses, served rulings against the reference engines, the
// auditor's consistency proofs and the server's ledger. A traced round
// keeps its ledger for the layer replays; otherwise nothing of the
// server outlives the check.
func (s *servingRun) check(o *outcome, inst *instance) {
	served, swaps := 0, 0
	for _, rg := range inst.ranges() {
		for i := rg[0]; i < rg[1]; i++ {
			r := s.t.book.rec(i)
			o.attempted++
			if r.status == 0 {
				o.failed++
				o.violate("request %d (%s) ended without a status", i, opNames[r.d.op])
				continue
			}
			if r.status != expectStatus[r.d.op] {
				o.failed++
				if r.d.op.hostile() {
					o.violate("hostile request %d (%s) got %d, want %d",
						i, opNames[r.d.op], r.status, expectStatus[r.d.op])
				}
				continue
			}
			ok, err := true, error(nil)
			switch r.d.op {
			case opEvaluate:
				served++
				ok, err = s.ref.evaluateMatches(r.d.key, r.hash)
			case opBatch:
				served++
				ok, err = s.ref.batchMatches(r.d.key, r.hash)
			case opSwap:
				swaps++
			}
			if err != nil {
				o.violate("request %d: %v", i, err)
			} else if !ok {
				o.violate("request %d (%s): served ruling differs from the reference engine", i, opNames[r.d.op])
			}
		}
	}
	led, err := checkLedger(inst.srv, served, swaps)
	if err != nil {
		o.violate("%v", err)
	}
	for _, e := range checkAuditor(inst.cps) {
		o.violate("%s", e)
	}
	if inst.traced {
		inst.led = led
	}
}

// reportInputs records the input properties of the run.
func (s *servingRun) reportInputs(o *outcome) {
	o.inputs["connections"] = s.cfg.nproc
	if s.spec.batch {
		o.inputs["batch_slots"] = batchSlots
		o.inputs["batch_population"] = len(s.t.in.tmpl)
		var sent []int32
		for _, inst := range s.insts {
			for _, p := range inst.phases {
				for i := p.lo; i < p.hi; i++ {
					sent = append(sent, s.t.book.rec(i).d.key)
				}
			}
		}
		o.inputs["batch_shape_repeat_share"] = round4(s.t.in.batchRepeatShare(sent))
		return
	}
	o.inputs["offered_rate_per_s"] = s.spec.rate
	o.inputs["action_shapes"] = len(s.t.in.tmpl)
	// Each round's server starts cold, so repeats count within a round.
	var ds []desc
	var share float64
	for _, inst := range s.insts {
		var round []desc
		for _, p := range inst.phases {
			for i := p.lo; i < p.hi; i++ {
				round = append(round, s.t.book.rec(i).d)
			}
		}
		share += repeatShare(round) / float64(len(s.insts))
		ds = append(ds, round...)
	}
	o.inputs["exact_repeat_share"] = round4(share)
	kinds := map[string]float64{}
	for _, d := range ds {
		if d.op.hostile() || d.op == opCheckpoint || d.op == opSwap {
			kinds[opNames[d.op]]++
		}
	}
	for k := range kinds {
		kinds[k] = round4(kinds[k] / float64(len(ds)))
	}
	o.inputs["share_by_kind"] = kinds
}

func round4(v float64) float64 { return float64(int64(v*1e4+0.5)) / 1e4 }

// latencies collects one population's latencies in a phase, sorted:
// valid requests from their intended send time (failures count as
// missed), or hostile requests from their actual send.
func (s *servingRun) latencies(p *phase, hostile bool) []int64 {
	var out []int64
	for i := p.lo; i < p.hi; i++ {
		r := s.t.book.rec(i)
		switch {
		case hostile && r.d.op.hostile():
			if r.status == expectStatus[r.d.op] {
				out = append(out, r.done-r.picked)
			} else {
				out = append(out, missed)
			}
		case !hostile && r.d.op.valid():
			if r.status == 200 {
				out = append(out, r.done-r.intended)
			} else {
				out = append(out, missed)
			}
		}
	}
	sortInt64(out)
	return out
}

// rulings counts rulings in 200 replies in a phase.
func (s *servingRun) rulings(p *phase) int64 {
	var n int64
	for i := p.lo; i < p.hi; i++ {
		r := s.t.book.rec(i)
		if r.status != 200 {
			continue
		}
		switch r.d.op {
		case opEvaluate:
			n++
		case opBatch:
			n += batchSlots
		}
	}
	return n
}

// roundMetrics are one round's end-to-end measurements.
type roundMetrics struct {
	setup, p50, p99, rulingsPerS, cpuPerOp, allocsPerOp, heapMB float64
	samples                                                     int
	// hostile are the round's hostile latencies; client.hostile_p99_us
	// pools them over rounds.
	hostile []int64
}

// measureRound computes one round's end-to-end metrics. Open-loop
// clean and chaos rounds take latency from the open phase and
// throughput and costs per op from the saturation phase; batch takes
// all of them from its closed loop.
func (s *servingRun) measureRound(inst *instance) roundMetrics {
	m := roundMetrics{setup: inst.setup.Seconds(), heapMB: inst.heapMB}
	lat := s.latencies(inst.phases[0], false)
	m.p50, m.p99, m.samples = us(quantile(lat, 0.50)), us(quantile(lat, 0.99)), len(lat)
	m.hostile = s.latencies(inst.phases[0], true)
	sat := inst.phases[len(inst.phases)-1]
	m.rulingsPerS = float64(s.rulings(sat)) / (float64(sat.end-sat.start) / 1e9)
	// Costs per op are taken at saturation too. A mix of the two phases
	// would weigh the open loop's idle wake-ups more whenever the closed
	// loop answered fewer requests, so a slower host would read as a
	// costlier op twice over.
	ops := int64(sat.hi - sat.lo)
	if s.spec.batch {
		ops = s.rulings(sat)
	}
	m.cpuPerOp = float64(sat.use.cpu.Nanoseconds()) / 1e3 / float64(ops)
	m.allocsPerOp = float64(sat.use.mallocs) / float64(ops)
	return m
}

// medianOf is the median of one field over rounds.
func medianOf(rs []roundMetrics, f func(roundMetrics) float64) float64 {
	v := make([]float64, len(rs))
	for i, r := range rs {
		v[i] = f(r)
	}
	return median(v)
}

// endToEnd reports every end-to-end metric as its median over rounds.
// Every workload reports the same metrics (sim.go gives them their
// simulator meaning). The open-loop tails, latency p99 and hostile p99,
// are per-layer metrics of the traced run (client.latency_p99_us,
// client.hostile_p99_us): the p99 of clean and chaos is set by
// process-wide stalls whose number depends on the host, and its
// run-to-run spread exceeds any bound a later change could be judged
// by (README.md).
func (s *servingRun) endToEnd(o *outcome) {
	var rs []roundMetrics
	samples := 0
	for _, inst := range s.insts {
		r := s.measureRound(inst)
		rs = append(rs, r)
		samples += r.samples
		if !s.spec.batch {
			s.checkLag(o, inst.phases[0])
		}
	}
	o.set("setup_s", medianOf(rs, func(r roundMetrics) float64 { return r.setup }), "s")
	o.set("latency_p50_us", medianOf(rs, func(r roundMetrics) float64 { return r.p50 }), "us")
	o.inputs["latency_samples"] = samples
	o.set("throughput_per_s", medianOf(rs, func(r roundMetrics) float64 { return r.rulingsPerS }), "1/s")
	o.set("cpu_us_per_op", medianOf(rs, func(r roundMetrics) float64 { return r.cpuPerOp }), "us")
	o.set("allocs_per_op", medianOf(rs, func(r roundMetrics) float64 { return r.allocsPerOp }), "count")
	o.set("peak_heap_mb", medianOf(rs, func(r roundMetrics) float64 { return r.heapMB }), "MB")
	o.inputs["rounds"] = len(rs)
}

// checkLag invalidates a run whose generator ran late: in every round
// its median lateness must stay below lagBound of latency_p50_us.
func (s *servingRun) checkLag(o *outcome, p *phase) {
	var lag []int64
	for i := p.lo; i < p.hi; i++ {
		lag = append(lag, s.t.book.rec(i).sent-s.t.book.rec(i).intended)
	}
	sortInt64(lag)
	l50, p50 := quantile(lag, 0.5), quantile(s.latencies(p, false), 0.5)
	if float64(l50) >= lagBound*float64(p50) {
		o.violate("generator lag p50 %.1f us is not below %.0f%% of latency p50 %.1f us: the run is invalid",
			us(l50), lagBound*100, us(p50))
	}
}

// queueSampler tracks the admission queue's deepest point.
type queueSampler struct {
	stopc chan struct{}
	done  sync.WaitGroup
	max   int64
}

func startQueueSampler(srv *server.Server) *queueSampler {
	q := &queueSampler{stopc: make(chan struct{})}
	q.done.Add(1)
	go func() {
		defer q.done.Done()
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-q.stopc:
				return
			case <-t.C:
				if d := srv.Stats().QueueDepth; d > q.max {
					q.max = d
				}
			}
		}
	}()
	return q
}

func (q *queueSampler) stop() int64 {
	close(q.stopc)
	q.done.Wait()
	return q.max
}
