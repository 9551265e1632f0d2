package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"

	"lawgate/internal/legal"
	"lawgate/internal/scenario"
)

// op is one request kind in a generated stream.
type op uint8

const (
	opEvaluate      op = iota // valid POST /v1/evaluate
	opCheckpoint              // auditor's GET /v1/ledger/checkpoint?since=<last size>
	opBatch                   // valid POST /v1/evaluate/batch
	opSwap                    // doctrine hot swap, PUT /v1/tenants/default/rules
	opMalformed               // hostile: truncated JSON -> 400
	opOversized               // hostile: 2 MiB body with Content-Length -> 413
	opZeroDeadline            // hostile: X-Lawgate-Deadline-Ms: 0 -> 504
	opUnknownTenant           // hostile: ?tenant=no-such -> 404
	opPoison                  // hostile: action the eval hook panics on -> 500
	numOps
)

var opNames = [numOps]string{
	"evaluate", "checkpoint", "batch", "swap",
	"malformed", "oversized", "zero_deadline", "unknown_tenant", "poison",
}

// hostileOps are drawn uniformly for each hostile slot in chaos.
var hostileOps = []op{opMalformed, opOversized, opZeroDeadline, opUnknownTenant, opPoison}

// expectStatus is the deliberate status each request kind must end in.
var expectStatus = [numOps]int32{
	opEvaluate: 200, opCheckpoint: 200, opBatch: 200, opSwap: 200,
	opMalformed: 400, opOversized: 413, opZeroDeadline: 504,
	opUnknownTenant: 404, opPoison: 500,
}

func (o op) hostile() bool { return o >= opMalformed }

// valid reports whether the request is a valid request whose latency
// counts in latency_p50_us and client.latency_p99_us.
func (o op) valid() bool { return o == opEvaluate || o == opCheckpoint || o == opBatch }

// desc is one generated request: its kind and, for evaluates, the
// name key (which also fixes the action shape) or, for batches, the
// batch index.
type desc struct {
	op  op
	key int32
}

// poisonName is the action name the benchmark's eval hook panics on.
const poisonName = "chaos-panic"

// batchSlots is the action count of one batch request.
const batchSlots = 256

// actionTemplate pre-encodes one action shape as the JSON that follows
// its name, so a request body is `{"Name":"<name>"` + rest.
type actionTemplate struct {
	shape legal.Action
	rest  []byte
}

func newTemplate(a legal.Action) (actionTemplate, error) {
	a.Name = ""
	b, err := json.Marshal(a)
	if err != nil {
		return actionTemplate{}, err
	}
	const head = `{"Name":""`
	if !bytes.HasPrefix(b, []byte(head)) {
		return actionTemplate{}, fmt.Errorf("action JSON does not start with %s: %s", head, b)
	}
	return actionTemplate{shape: a, rest: b[len(head):]}, nil
}

func templates(shapes []legal.Action) ([]actionTemplate, error) {
	out := make([]actionTemplate, len(shapes))
	for i, s := range shapes {
		t, err := newTemplate(s)
		if err != nil {
			return nil, err
		}
		out[i] = t
	}
	return out, nil
}

// tableShapes are the paper's Table 1 scenes and Section IV case
// studies: the clean and chaos action population.
func tableShapes() []legal.Action {
	var s []legal.Action
	for _, sc := range scenario.Table1() {
		s = append(s, sc.Action)
	}
	for _, cs := range scenario.CaseStudies() {
		s = append(s, cs.Action)
	}
	return s
}

// batchShapes is the batch population: every in-range combination of
// the four dispatch dimensions (actor, timing, data class, source)
// crossed with exposure, consent, exigency and flag variants, keeping
// only actions that pass Action.Validate.
func batchShapes() []legal.Action {
	variants := []func(a *legal.Action){
		func(a *legal.Action) {},
		func(a *legal.Action) { a.Exposure = []legal.ExposureFact{legal.ExposureKnowinglyPublic} },
		func(a *legal.Action) {
			a.Exposure = []legal.ExposureFact{legal.ExposureDelivered, legal.ExposureRelinquished}
		},
		func(a *legal.Action) { a.Consent = &legal.Consent{Scope: legal.ConsentOwnData} },
		func(a *legal.Action) {
			a.Consent = &legal.Consent{Scope: legal.ConsentCoUserSharedSpace, Revoked: true}
		},
		func(a *legal.Action) { a.Exigency = &legal.Exigency{Kind: legal.ExigencyEvidenceDestruction} },
		func(a *legal.Action) { a.Encrypted = true },
		func(a *legal.Action) { a.PlainView, a.LawfulVantage = true, true },
	}
	var out []legal.Action
	for actor := 1; actor <= 12; actor++ {
		for timing := 1; timing <= 12; timing++ {
			for data := 1; data <= 12; data++ {
				for source := 1; source <= 12; source++ {
					base := legal.Action{
						Actor: legal.Actor(actor), Timing: legal.Timing(timing),
						Data: legal.DataClass(data), Source: legal.Source(source),
					}
					if base.Validate() != nil {
						continue
					}
					for _, v := range variants {
						a := base
						v(&a)
						if a.Validate() == nil {
							out = append(out, a)
						}
					}
				}
			}
		}
	}
	return out
}

// inputs are one run's generated inputs, all derived from the seed.
type inputs struct {
	tmpl []actionTemplate

	// Batch b's slot shapes are a Zipf draw (exponent batchZipf) over
	// the population in batchOrder, from a stream of the batch's own
	// seeded by batchSeed and b — so the client, the reference check and
	// the replays regenerate the same batch without storing it.
	batchOrder []int
	batchSeed  uint64
	batchZipf  float64
}

// splitmix is a rand.Source64 whose seeding costs nothing, so every
// batch can have a stream of its own.
type splitmix struct{ s uint64 }

func (x *splitmix) Uint64() uint64 {
	x.s += 0x9e3779b97f4a7c15
	z := x.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (x *splitmix) Int63() int64    { return int64(x.Uint64() >> 1) }
func (x *splitmix) Seed(seed int64) { x.s = uint64(seed) }

// slotShapes appends the slot shapes of batch b to dst.
func (in *inputs) slotShapes(dst []uint16, b int32) []uint16 {
	r := rand.New(&splitmix{s: in.batchSeed ^ uint64(b)*0xd1342543de82ef95})
	z := rand.NewZipf(r, in.batchZipf, 1, uint64(len(in.batchOrder)-1))
	for j := 0; j < batchSlots; j++ {
		dst = append(dst, uint16(in.batchOrder[z.Uint64()]))
	}
	return dst
}

// evaluateName is the action name of evaluate key k.
func evaluateName(dst []byte, key int32) []byte {
	dst = append(dst, 'r')
	return strconv.AppendInt(dst, int64(key), 10)
}

func (in *inputs) appendEvaluate(dst []byte, key int32) []byte {
	dst = append(dst, `{"Name":"`...)
	dst = evaluateName(dst, key)
	dst = append(dst, '"')
	return append(dst, in.tmpl[int(key)%len(in.tmpl)].rest...)
}

// evaluateAction is the action evaluate key k sends.
func (in *inputs) evaluateAction(key int32) legal.Action {
	a := in.tmpl[int(key)%len(in.tmpl)].shape
	a.Name = string(evaluateName(nil, key))
	return a
}

func batchSlotName(dst []byte, b int32, j int) []byte {
	dst = append(dst, 'b')
	dst = strconv.AppendInt(dst, int64(b), 10)
	dst = append(dst, '-')
	return strconv.AppendInt(dst, int64(j), 10)
}

func (in *inputs) appendBatch(dst []byte, b int32) []byte {
	var buf [batchSlots]uint16
	dst = append(dst, '[')
	for j, s := range in.slotShapes(buf[:0], b) {
		if j > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"Name":"`...)
		dst = batchSlotName(dst, b, j)
		dst = append(dst, '"')
		dst = append(dst, in.tmpl[s].rest...)
	}
	return append(dst, ']')
}

// batchActions are the actions batch b sends.
func (in *inputs) batchActions(b int32) []legal.Action {
	var buf [batchSlots]uint16
	out := make([]legal.Action, batchSlots)
	for j, s := range in.slotShapes(buf[:0], b) {
		out[j] = in.tmpl[s].shape
		out[j].Name = string(batchSlotName(nil, b, j))
	}
	return out
}

// streamSpec shapes a generated request stream.
type streamSpec struct {
	zipfS        float64 // Zipf exponent of the evaluate name draw
	zipfV        float64 // Zipf offset: larger flattens the head
	namePool     uint64  // distinct evaluate names
	auditorEvery int     // one request in auditorEvery is a checkpoint read (0: none)
	hostileEvery int     // one request in hostileEvery is hostile (0: none)
	swapEvery    int     // one request in swapEvery is a doctrine swap (0: none)
}

// streamGen draws a request stream. Hostile, auditor and swap slots
// sit at fixed positions, so their shares are fixed; which hostile kind
// and which name fill a slot come from r.
type streamGen struct {
	r    *rand.Rand
	z    *rand.Zipf
	spec streamSpec
	i    int
}

func (g *streamGen) next() desc {
	i, spec := g.i, g.spec
	g.i++
	switch {
	case spec.swapEvery > 0 && i%spec.swapEvery == spec.swapEvery-1:
		return desc{op: opSwap, key: int32(i / spec.swapEvery)}
	case spec.hostileEvery > 0 && i%spec.hostileEvery == spec.hostileEvery/2:
		o := hostileOps[g.r.Intn(len(hostileOps))]
		return desc{op: o, key: int32(g.z.Uint64())}
	case spec.auditorEvery > 0 && i%spec.auditorEvery == 0:
		return desc{op: opCheckpoint}
	default:
		return desc{op: opEvaluate, key: int32(g.z.Uint64())}
	}
}

// repeatShare is the share of evaluate requests whose exact action was
// already sent earlier in the stream.
func repeatShare(ds []desc) float64 {
	seen := map[int32]bool{}
	var n, rep int
	for _, d := range ds {
		if d.op != opEvaluate {
			continue
		}
		n++
		if seen[d.key] {
			rep++
		}
		seen[d.key] = true
	}
	if n == 0 {
		return 0
	}
	return float64(rep) / float64(n)
}

// batchRepeatShare is the share of slots of the given batches whose
// shape already appeared earlier in the same batch.
func (in *inputs) batchRepeatShare(batches []int32) float64 {
	if len(batches) == 0 {
		return 0
	}
	rep := 0
	seen := map[uint16]bool{}
	var buf [batchSlots]uint16
	for _, b := range batches {
		clear(seen)
		for _, s := range in.slotShapes(buf[:0], b) {
			if seen[s] {
				rep++
			}
			seen[s] = true
		}
	}
	return float64(rep) / float64(len(batches)*batchSlots)
}
