package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"time"

	"lawgate/internal/ledger"
	"lawgate/internal/legal"
	"lawgate/internal/server"
	"lawgate/internal/wire"
)

// layerMetric names one per-layer metric and its unit. Every traced run
// reports all of them; a layer a workload does not exercise reads 0.
type layerMetric struct{ name, unit string }

var layerMetrics = []layerMetric{
	{"client.send_lag_p50_us", "us"},
	{"client.send_lag_p99_us", "us"},
	{"client.conn_wait_p99_us", "us"},
	{"client.latency_p99_us", "us"},
	{"client.hostile_p99_us", "us"},
	{"server.transport_p50_us", "us"},
	{"server.handler_p50_us", "us"},
	{"server.handler_p99_us", "us"},
	{"server.pre_eval_p50_us", "us"},
	{"server.post_eval_p50_us", "us"},
	{"server.hostile_handler_p99_us", "us"},
	{"server.queue_depth_max", "count"},
	{"server.conns_accepted", "count"},
	{"server.bytes_in_per_req", "B"},
	{"server.bytes_out_per_req", "B"},
	{"server.status.200", "count"},
	{"server.status.400", "count"},
	{"server.status.404", "count"},
	{"server.status.413", "count"},
	{"server.status.500", "count"},
	{"server.status.504", "count"},
	{"server.metricsz.requests", "count"},
	{"server.metricsz.ok", "count"},
	{"server.metricsz.client_errors", "count"},
	{"server.metricsz.rate_limited", "count"},
	{"server.metricsz.shed", "count"},
	{"server.metricsz.deadline_expired", "count"},
	{"server.metricsz.panics", "count"},
	{"server.metricsz.rulings", "count"},
	{"wire.decode_ns_per_action", "ns"},
	{"wire.decode_allocs_per_action", "count"},
	{"wire.encode_ns_per_ruling", "ns"},
	{"wire.encode_allocs_per_ruling", "count"},
	{"legal.evaluate_ns", "ns"},
	{"legal.evaluate_allocs", "count"},
	{"legal.batch_ns_per_ruling", "ns"},
	{"legal.cache_hit_ratio", "ratio"},
	{"legal.rules_scanned_per_eval", "count"},
	{"legal.batch_dedup_ratio", "ratio"},
	{"legal.batch_chain_ratio", "ratio"},
	{"ledger.records_per_ruling", "ratio"},
	{"ledger.append_batch_ns_per_record", "ns"},
	{"ledger.append_batch_allocs_per_record", "count"},
	{"ledger.checkpoint_ns", "ns"},
	{"ledger.consistency_proof_ns", "ns"},
	{"ledger.verify_ms", "ms"},
	{"netsim.events", "count"},
	{"netsim.delivered", "count"},
	{"netsim.dropped", "count"},
	{"netsim.traffic_ns_per_call", "ns"},
	{"netsim.handler_ns_per_call", "ns"},
	{"netsim.tap_ns_per_call", "ns"},
	{"netsim.engine_cpu_share", "ratio"},
	{"netsim.allocs_per_event", "count"},
	{"netsim.bytes_per_event", "B"},
	{"netsim.freeze_s", "s"},
	{"trace.latency_p50_overhead_us", "us"},
	{"trace.events_per_s_overhead", "1/s"},
	{"trace.stage_sum_error", "ratio"},
}

// setLayer sets a per-layer metric by name with its declared unit.
func (o *outcome) setLayer(name string, v float64) {
	for _, m := range layerMetrics {
		if m.name == name {
			o.set(name, v, m.unit)
			return
		}
	}
	panic("lawbench: undeclared layer metric " + name)
}

// zeroLayers reports every per-layer metric as 0 before a workload
// fills in the layers it exercises.
func zeroLayers(o *outcome) {
	for _, m := range layerMetrics {
		o.set(m.name, 0, m.unit)
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Replays time each layer's public entry points on the run's own
// recorded inputs, capped at this many actions.
const maxReplayActions = 30000

// layerMetrics computes a traced serving run's per-layer metrics: the
// client and server stages from spans, live counters, and layer replays.
func (s *servingRun) layerMetrics(o *outcome) error {
	zeroLayers(o)
	// Stages, counters and replays come from the last traced round;
	// tracing overhead compares traced and untraced rounds.
	var traced *instance
	var tracedP50, plainP50, plainP99 []float64
	var hostileLat []int64
	for _, inst := range s.insts {
		m := s.measureRound(inst)
		if inst.traced {
			traced = inst
			tracedP50 = append(tracedP50, m.p50)
		} else {
			plainP50 = append(plainP50, m.p50)
			plainP99 = append(plainP99, m.p99)
			hostileLat = append(hostileLat, m.hostile...)
		}
	}
	if traced == nil {
		return fmt.Errorf("traced run has no traced round")
	}
	tr := traced.tr
	main := traced.phases[0]

	// Client and server stages over valid requests answered 200.
	// Transport is timed on its own, at the connection: request bytes in
	// flight (client send -> first server read) plus reply bytes in
	// flight (last server write -> client read). The stage-sum check
	// compares the five stages' sum with the latency over the evaluates;
	// what it leaves out is net/http's own time (request parse before
	// the handler, reply flush after it).
	var lag, wait, transport, handler, pre, post, lat []int64
	var sumStages, sumLat float64
	unjoined := 0
	for i := main.lo; i < main.hi; i++ {
		r, sp := s.t.book.rec(i), s.t.book.span(i)
		if !r.d.op.valid() {
			continue
		}
		lag = append(lag, r.sent-r.intended)
		wait = append(wait, r.picked-r.sent)
		if r.status != 200 {
			continue
		}
		wrote := sp.wrote.Load()
		if sp.read == 0 || sp.read < r.picked || sp.start < sp.read || sp.end < sp.start ||
			wrote < sp.end || r.done < wrote {
			unjoined++
			continue
		}
		handler = append(handler, sp.end-sp.start)
		tr := (sp.read - r.picked) + (r.done - wrote)
		transport = append(transport, tr)
		lat = append(lat, r.done-r.intended)
		if r.d.op == opCheckpoint {
			// Checkpoint reads hold no evaluation slot: no pre/post split.
			continue
		}
		if sp.hook < sp.start || sp.hook > sp.end {
			unjoined++
			continue
		}
		pre = append(pre, sp.hook-sp.start)
		post = append(post, sp.end-sp.hook)
		sumStages += float64((r.sent - r.intended) + (r.picked - r.sent) + tr + (sp.hook - sp.start) + (sp.end - sp.hook))
		sumLat += float64(r.done - r.intended)
	}
	for _, v := range [][]int64{lag, wait, transport, handler, pre, post, lat} {
		sortInt64(v)
	}
	if unjoined > 0 {
		o.violate("stage sum: %d traced requests lack a server span nested in their client span", unjoined)
	}
	stageErr := math.Abs(sumLat-sumStages) / sumLat
	if !s.spec.batch && !(stageErr <= stageSumTolerance) {
		o.violate("stage sum: the five stages add up to %.1f%% of the latency, outside the %.0f%% tolerance",
			100*sumStages/sumLat, stageSumTolerance*100)
	}
	q50 := func(v []int64) float64 { return us(quantile(v, 0.5)) }
	o.setLayer("client.send_lag_p50_us", q50(lag))
	o.setLayer("client.send_lag_p99_us", us(quantile(lag, 0.99)))
	o.setLayer("client.conn_wait_p99_us", us(quantile(wait, 0.99)))
	o.setLayer("server.transport_p50_us", q50(transport))
	o.setLayer("server.handler_p50_us", q50(handler))
	o.setLayer("server.handler_p99_us", us(quantile(handler, 0.99)))
	o.setLayer("server.pre_eval_p50_us", q50(pre))
	o.setLayer("server.post_eval_p50_us", q50(post))
	o.setLayer("trace.stage_sum_error", stageErr)
	o.setLayer("trace.latency_p50_overhead_us", median(tracedP50)-median(plainP50))
	// The end-to-end tails, taken like latency_p50_us from the untraced
	// rounds: the median of their p99s, and the p99 of their pooled
	// hostile latencies.
	o.setLayer("client.latency_p99_us", median(plainP99))
	sortInt64(hostileLat)
	o.setLayer("client.hostile_p99_us", us(quantile(hostileLat, 0.99)))
	if !s.spec.batch {
		s.checkLag(o, main)
	}

	var hostile []int64
	statuses := map[int32]float64{}
	requests := 0
	for _, rg := range traced.ranges() {
		for i := rg[0]; i < rg[1]; i++ {
			requests++
			sp := s.t.book.span(i)
			statuses[sp.status]++
			if s.t.book.rec(i).d.op.hostile() && sp.end > 0 && i >= main.lo && i < main.hi {
				hostile = append(hostile, sp.end-sp.start)
			}
		}
	}
	sortInt64(hostile)
	o.setLayer("server.hostile_handler_p99_us", us(quantile(hostile, 0.99)))
	for _, code := range []int32{200, 400, 404, 413, 500, 504} {
		o.setLayer("server.status."+strconv.Itoa(int(code)), statuses[code])
	}
	o.setLayer("server.queue_depth_max", float64(tr.queueMax))
	o.setLayer("server.conns_accepted", float64(tr.accepted.Load()))
	o.setLayer("server.bytes_in_per_req", ratio(float64(tr.bytesIn.Load()), float64(requests)))
	o.setLayer("server.bytes_out_per_req", ratio(float64(tr.bytesOut.Load()), float64(requests)))
	for _, k := range []struct{ metric, field string }{
		{"requests", "requests"}, {"ok", "ok"}, {"client_errors", "clientErrors"},
		{"rate_limited", "rateLimited"}, {"shed", "shed"}, {"deadline_expired", "deadlineExpired"},
		{"panics", "panics"}, {"rulings", "rulings"},
	} {
		o.setLayer("server.metricsz."+k.metric, num(tr.metricsz, k.field))
	}

	rulings := s.rulings(&phase{lo: traced.warmLo, hi: traced.warmHi})
	for _, p := range traced.phases {
		rulings += s.rulings(p)
	}
	if st, ok := tr.tenant["engine"].(map[string]any); ok {
		evals := num(st, "Evaluations")
		o.setLayer("legal.cache_hit_ratio", ratio(num(st, "CacheHits"), evals))
		o.setLayer("legal.rules_scanned_per_eval",
			ratio(num(st, "RulesScanned"), num(st, "CacheMisses")-num(st, "InvalidActions")))
		if s.spec.batch {
			slots := evals + num(st, "BatchDeduped") + num(st, "BatchDeltaChained")
			o.setLayer("legal.batch_dedup_ratio", ratio(num(st, "BatchDeduped"), slots))
			o.setLayer("legal.batch_chain_ratio", ratio(num(st, "BatchDeltaChained"), slots))
		}
	}

	if err := s.replay(o, traced, rulings); err != nil {
		return err
	}
	return s.writeSpans(traced)
}

// replay times the wire, legal and ledger entry points on the traced
// server's own recorded inputs.
func (s *servingRun) replay(o *outcome, inst *instance, rulings int64) error {
	in := s.t.in
	// The recorded valid requests, in send order: one body per evaluate,
	// or one per batch.
	var bodies [][]byte
	var actions []legal.Action
	var batches [][]legal.Action
	for _, rg := range inst.ranges() {
		for i := rg[0]; i < rg[1] && len(actions) < maxReplayActions; i++ {
			d := s.t.book.rec(i).d
			switch d.op {
			case opEvaluate:
				bodies = append(bodies, in.appendEvaluate(nil, d.key))
				actions = append(actions, in.evaluateAction(d.key))
			case opBatch:
				bodies = append(bodies, in.appendBatch(nil, d.key))
				b := in.batchActions(d.key)
				batches = append(batches, b)
				actions = append(actions, b...)
			}
		}
	}
	if len(actions) == 0 {
		return nil
	}
	if !s.spec.batch {
		for i := 0; i+batchSlots <= len(actions); i += batchSlots {
			batches = append(batches, actions[i:i+batchSlots])
		}
	}
	n := float64(len(actions))

	// wire: decode every recorded body, encode every ruling.
	var a legal.Action
	dst := make([]legal.Action, 0, batchSlots)
	runtime.GC() // start each timed replay from a settled heap
	u0, t0 := readUsage(), time.Now()
	for _, b := range bodies {
		if s.spec.batch {
			dst, _ = wire.DecodeActions(b, dst[:0])
		} else {
			_ = wire.DecodeAction(b, &a)
		}
	}
	el, u := time.Since(t0), readUsage().sub(u0)
	o.setLayer("wire.decode_ns_per_action", float64(el.Nanoseconds())/n)
	o.setLayer("wire.decode_allocs_per_action", float64(u.mallocs)/n)

	ref := legal.NewEngine()
	rs := make([]legal.Ruling, len(actions))
	for i := range actions {
		rs[i], _ = ref.Evaluate(actions[i])
	}
	buf := wire.GetBuffer()
	runtime.GC() // start each timed replay from a settled heap
	u0, t0 = readUsage(), time.Now()
	for i := range rs {
		buf.B = wire.AppendRulingViewFromRuling(buf.B[:0], &rs[i])
	}
	el, u = time.Since(t0), readUsage().sub(u0)
	wire.PutBuffer(buf)
	o.setLayer("wire.encode_ns_per_ruling", float64(el.Nanoseconds())/n)
	o.setLayer("wire.encode_allocs_per_ruling", float64(u.mallocs)/n)

	// legal: a fresh tenant engine, exactly as a new server provisions
	// it, fed the recorded actions in order, one by one and then as
	// batches.
	eng, err := tenantEngine()
	if err != nil {
		return err
	}
	runtime.GC() // start each timed replay from a settled heap
	u0, t0 = readUsage(), time.Now()
	for i := range actions {
		_, _ = eng.Evaluate(actions[i])
	}
	el, u = time.Since(t0), readUsage().sub(u0)
	o.setLayer("legal.evaluate_ns", float64(el.Nanoseconds())/n)
	o.setLayer("legal.evaluate_allocs", float64(u.mallocs)/n)
	if len(batches) > 0 {
		if eng, err = tenantEngine(); err != nil {
			return err
		}
		slots := 0
		runtime.GC()
		t0 = time.Now()
		for _, b := range batches {
			_, _ = eng.EvaluateBatch(context.Background(), b)
			slots += len(b)
		}
		o.setLayer("legal.batch_ns_per_ruling", float64(time.Since(t0).Nanoseconds())/float64(slots))
	}

	// ledger: the drained tenant ledger's own records, re-sealed in
	// spool-sized batches, checkpointed after each, then proved and
	// verified.
	led := inst.led
	if led == nil {
		return fmt.Errorf("traced round kept no verified ledger")
	}
	recs := led.Records()
	served := 0
	drafts := make([]ledger.Draft, len(recs))
	for i, r := range recs {
		drafts[i] = ledger.Draft{At: r.At, Kind: r.Kind, Code: r.Code, Actor: r.Actor, Subject: r.Subject, Note: r.Note}
		if r.Code == server.ServiceRulingServed {
			served++
		}
	}
	o.setLayer("ledger.records_per_ruling", ratio(float64(served), float64(rulings)))
	const spool = 64 // the server's audit-spool flush threshold
	replayLed := ledger.New()
	var appendNs, cpNs int64
	var cps int
	runtime.GC() // start each timed replay from a settled heap
	u0 = readUsage()
	for lo := 0; lo < len(drafts); lo += spool {
		hi := min(lo+spool, len(drafts))
		t0 = time.Now()
		replayLed.AppendBatch(drafts[lo:hi])
		appendNs += time.Since(t0).Nanoseconds()
		t0 = time.Now()
		_ = replayLed.Checkpoint()
		cpNs += time.Since(t0).Nanoseconds()
		cps++
	}
	u = readUsage().sub(u0)
	o.setLayer("ledger.append_batch_ns_per_record", ratio(float64(appendNs), float64(len(drafts))))
	o.setLayer("ledger.append_batch_allocs_per_record", ratio(float64(u.mallocs), float64(len(drafts))))
	o.setLayer("ledger.checkpoint_ns", ratio(float64(cpNs), float64(cps)))
	var proofNs int64
	proofs := 0
	for _, cp := range inst.cps {
		if cp.since == 0 {
			continue
		}
		t0 = time.Now()
		_, _ = replayLed.ConsistencyProof(cp.since, cp.resp.Size)
		proofNs += time.Since(t0).Nanoseconds()
		proofs++
	}
	o.setLayer("ledger.consistency_proof_ns", ratio(float64(proofNs), float64(proofs)))
	t0 = time.Now()
	if err := led.Verify(); err != nil {
		o.violate("ledger verify on replay: %v", err)
	}
	o.setLayer("ledger.verify_ms", float64(time.Since(t0).Microseconds())/1e3)
	return nil
}

// tenantEngine returns the engine a newly provisioned tenant serves
// with, from a server that is built but never started.
func tenantEngine() (*legal.Engine, error) {
	srv, err := server.New(server.WithTenants("default"))
	if err != nil {
		return nil, err
	}
	return srv.Registry().Get("default").Engine().Engine, nil
}
