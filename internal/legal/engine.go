package legal

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Regime identifies the body of law governing an acquisition.
type Regime int

// Governing regimes.
const (
	// RegimeNone: no constitutional or statutory restriction reaches the
	// acquisition.
	RegimeNone Regime = iota + 1
	// RegimeFourthAmendment: the acquisition is a search or seizure
	// governed by the Fourth Amendment.
	RegimeFourthAmendment
	// RegimeWiretap: real-time acquisition of communication contents,
	// governed by Title III.
	RegimeWiretap
	// RegimePenTrap: real-time acquisition of addressing and other
	// non-content information, governed by the Pen/Trap statute.
	RegimePenTrap
	// RegimeSCA: access to communications or records stored with a
	// covered service provider, governed by the SCA.
	RegimeSCA
)

var regimeNames = map[Regime]string{
	RegimeNone:            "no governing restriction",
	RegimeFourthAmendment: "Fourth Amendment",
	RegimeWiretap:         "Wiretap Act (Title III)",
	RegimePenTrap:         "Pen/Trap statute",
	RegimeSCA:             "Stored Communications Act",
}

// String returns the human-readable regime name.
func (r Regime) String() string {
	if s, ok := regimeNames[r]; ok {
		return s
	}
	return fmt.Sprintf("Regime(%d)", int(r))
}

// Ruling is the engine's determination for one Action. Rulings returned by
// the engine must be treated as immutable: the engine interns ruling
// shapes (everything but Action — see shapes.go), so every ruling of one
// shape shares the same Exceptions, Privacy, Rationale, Citations and
// Applied backing memory with every other ruling of that shape.
type Ruling struct {
	// Action echoes the evaluated action.
	Action Action
	// Required is the minimum process the acquisition demands.
	Required Process
	// Regime is the governing body of law.
	Regime Regime
	// Exceptions lists the doctrines that eliminated or reduced the
	// process requirement, deduplicated, in the order first applied.
	Exceptions []ExceptionKind
	// Privacy is the REP finding, when a Fourth Amendment analysis ran.
	Privacy *PrivacyFinding
	// Rationale is the ordered chain of reasons for the ruling.
	Rationale []string
	// Citations are the supporting authorities, deduplicated, in the
	// order first relied upon.
	Citations []Citation
	// Applied names the doctrine rules that fired, in pipeline order —
	// the ruling's audit trail through the rule table.
	Applied []string

	// validated records that the engine built this ruling from an action
	// that passed Validate — the fact EvaluateDelta's short-circuit
	// needs before it may trust the prior action's dispatch coordinates.
	// Caller-constructed rulings leave it false and take the full path.
	validated bool
}

// NeedsProcess reports whether the acquisition requires any warrant, court
// order, or subpoena — the Table 1 "Need / No need" answer.
func (r *Ruling) NeedsProcess() bool {
	return r.Required > ProcessNone
}

// HasException reports whether the ruling relied on the given exception.
func (r *Ruling) HasException(k ExceptionKind) bool {
	for _, e := range r.Exceptions {
		if e == k {
			return true
		}
	}
	return false
}

func (r *Ruling) require(p Process, regime Regime, reason string) {
	r.Required = p
	r.Regime = regime
	r.Rationale = append(r.Rationale, reason)
}

// except records reliance on an exception doctrine. Exception kinds are
// deduplicated like citations — first reliance wins — while the reason
// always joins the rationale chain.
func (r *Ruling) except(k ExceptionKind, reason string) {
	if !r.HasException(k) {
		r.Exceptions = append(r.Exceptions, k)
	}
	r.Rationale = append(r.Rationale, reason)
}

func (r *Ruling) cite(ids ...string) {
	for _, id := range ids {
		c := Cite(id)
		dup := false
		for _, have := range r.Citations {
			if have.ID == c.ID {
				dup = true
				break
			}
		}
		if !dup {
			r.Citations = append(r.Citations, c)
		}
	}
}

// ContainerDoctrine selects how a computer is treated for scope purposes.
// The paper notes "there is no agreement on whether a computer or other
// storage device should be classified as a single closed container or
// whether each individual file … should be treated as a separate closed
// container" (§ II-C-2); the doctrines diverge exactly on Table 1 scene
// 18.
type ContainerDoctrine int

// Container doctrines.
const (
	// ContainerPerFile treats each file as its own closed container:
	// examining a lawfully seized drive for matter outside the original
	// authority is a new search (United States v. Crist; the Table 1
	// answer, and the default).
	ContainerPerFile ContainerDoctrine = iota + 1
	// ContainerSingle treats the whole device as one container: once
	// lawfully obtained, an exhaustive examination needs no further
	// process (the Runyan/Beusch line the paper cites as the other
	// side).
	ContainerSingle
)

// String returns the doctrine name.
func (d ContainerDoctrine) String() string {
	switch d {
	case ContainerPerFile:
		return "per-file container"
	case ContainerSingle:
		return "single container"
	default:
		return fmt.Sprintf("ContainerDoctrine(%d)", int(d))
	}
}

// Engine evaluates Actions against an ordered table of doctrine rules
// (see rules.go). The zero value is not ready to use; construct engines
// with NewEngine. The default table follows the paper's Table 1 answers
// (per-file containers).
//
// NewEngine compiles the rule table into a dispatch index (see
// dispatch.go) so evaluation consults only the candidate rules for an
// action's (actor, timing, data, source) coordinates rather than the
// whole table, and each walk's result is interned in the engine's shape
// table (see shapes.go) so repeated ruling shapes share one immutable
// copy instead of being rebuilt.
//
// An Engine is safe for concurrent use: its configuration is immutable
// after NewEngine, evaluation is a pure function of the action, and the
// shape table is internally synchronized.
type Engine struct {
	container ContainerDoctrine
	rules     []Rule
	dispatch  *dispatchIndex
	shapes    shapeTable
	workers   int
	statsOn   bool

	counters engineCounters
}

// engineCounters are the engine's monotonic observability counters,
// collected when WithEngineStats is configured.
type engineCounters struct {
	evaluations  atomic.Uint64
	invalid      atomic.Uint64
	rulesScanned atomic.Uint64
	deltaEvals   atomic.Uint64
	deltaShort   atomic.Uint64
}

// EngineStats is a point-in-time snapshot of the engine's counters —
// enough to read dispatch selectivity and delta effectiveness off a
// running engine (cmd/evaluate -engine-stats prints one). Counters are
// collected only on engines built with WithEngineStats; on other
// engines every counter reads zero (RuleTableSize is structural and
// always populated).
type EngineStats struct {
	// Evaluations counts evaluation requests: Evaluate calls plus
	// batch slots.
	Evaluations uint64
	// InvalidActions counts evaluations rejected by Action.Validate.
	InvalidActions uint64
	// RulesScanned totals the candidate rules consulted across all
	// rule-table walks; RulesScanned/(Evaluations-InvalidActions) is the
	// average scan length, to be compared against RuleTableSize, the
	// linear-walk cost the dispatch index avoids.
	RulesScanned uint64
	// DeltaEvaluations counts EvaluateDelta calls; DeltaShortCircuits
	// counts the subset resolved by the dispatch-bitset proof without
	// touching the rule table. Short-circuited calls do not count under
	// Evaluations (no engine evaluation ran); the remainder re-enter the
	// normal evaluation path and are counted there.
	DeltaEvaluations   uint64
	DeltaShortCircuits uint64
	// RuleTableSize is the engine's rule count.
	RuleTableSize int
}

// Stats returns a snapshot of the engine's counters. Counters are
// updated independently, so a snapshot taken during concurrent
// evaluation may be transiently inconsistent between fields; each
// individual counter is monotonic.
func (e *Engine) Stats() EngineStats {
	return EngineStats{
		Evaluations:        e.counters.evaluations.Load(),
		InvalidActions:     e.counters.invalid.Load(),
		RulesScanned:       e.counters.rulesScanned.Load(),
		DeltaEvaluations:   e.counters.deltaEvals.Load(),
		DeltaShortCircuits: e.counters.deltaShort.Load(),
		RuleTableSize:      len(e.rules),
	}
}

// EngineOption configures an Engine.
type EngineOption func(*Engine)

// WithContainerDoctrine selects the closed-container doctrine; the default
// is ContainerPerFile (Crist), which the paper's Table 1 follows.
func WithContainerDoctrine(d ContainerDoctrine) EngineOption {
	return func(e *Engine) { e.container = d }
}

// WithRules installs a custom doctrine table in place of DefaultRules.
// The slice is walked in order; see the Rule type for the pipeline
// contract.
func WithRules(rules []Rule) EngineOption {
	return func(e *Engine) { e.rules = rules }
}

// WithEngineStats enables counter collection (see EngineStats). Off by
// default, so evaluation writes no shared counters; enabling stats adds
// a few atomic counter updates per evaluation.
func WithEngineStats() EngineOption {
	return func(e *Engine) { e.statsOn = true }
}

// WithBatchWorkers bounds the EvaluateBatch worker pool; n <= 0 selects
// one worker per available CPU.
func WithBatchWorkers(n int) EngineOption {
	return func(e *Engine) { e.workers = n }
}

// NewEngine returns a ready-to-use compliance engine, with the rule
// table compiled into its dispatch index.
func NewEngine(opts ...EngineOption) *Engine {
	e := &Engine{container: ContainerPerFile}
	for _, opt := range opts {
		opt(e)
	}
	if e.rules == nil {
		e.rules = DefaultRules()
	}
	e.dispatch = compileDispatch(e.rules)
	return e
}

// Container reports the engine's configured closed-container doctrine.
func (e *Engine) Container() ContainerDoctrine { return e.container }

// Rules returns a copy of the engine's doctrine table, in pipeline order.
func (e *Engine) Rules() []Rule {
	out := make([]Rule, len(e.rules))
	copy(out, e.rules)
	return out
}

// Evaluate determines the process an acquisition requires, the governing
// regime, applicable exceptions, and a rationale chain, by walking the
// candidate rules for the action in pipeline order: each rule whose
// predicate matches contributes to the ruling, and a terminal rule ends
// the walk. It is a pure function of the action: identical actions
// yield identical rulings.
func (e *Engine) Evaluate(a Action) (Ruling, error) {
	return e.evaluate(a, nil)
}

// EvaluateDelta re-evaluates a previously ruled action after the given
// delta, returning exactly what Evaluate would return for the mutated
// action (the equivalence tests in delta_test.go hold it to that, error
// cases included). prev must be a ruling produced by this engine — or
// one configured with the same rule table and container doctrine —
// and, like all rulings, must be treated as immutable.
//
// The fast path is an O(changed fields) proof that the prior ruling
// still holds: when prev was built from a validated action, the delta
// leaves the four dispatch dimensions untouched, every new value is in
// range, and the changed-field mask misses the action's dispatch bucket
// sensitivity (the union of its rules' declared Reads — see RuleMatch),
// then by induction over the bucket walk every rule observes identical
// inputs, fires identically, and contributes identically, so the prior
// ruling is returned with only the action updated — no rule walk, no
// allocation. Otherwise the action is rebuilt and evaluated in full.
func (e *Engine) EvaluateDelta(prev *Ruling, d ActionDelta) (Ruling, error) {
	if prev == nil {
		return Ruling{}, fmt.Errorf("legal: EvaluateDelta: nil previous ruling")
	}
	if e.statsOn {
		e.counters.deltaEvals.Add(1)
	}
	changed := d.mask()
	if changed&dimFieldMask == 0 && prev.validated && d.changedInRange() {
		// A validated prior action has in-range dimensions, which index
		// the bucket whose sensitivity decides the proof.
		bi := bucketIndex(prev.Action.Actor, prev.Action.Timing, prev.Action.Data, prev.Action.Source)
		if e.dispatch.sens[bi]&changed == 0 {
			r := *prev
			d.Apply(&r.Action)
			if e.statsOn {
				e.counters.deltaShort.Add(1)
			}
			return r, nil
		}
	}
	a := prev.Action
	d.Apply(&a)
	return e.evaluate(a, nil)
}

// scratchPool lends evaluation scratch: Evaluate and EvaluateDelta
// borrow one per call, a batch worker one for its share of the batch.
var scratchPool = sync.Pool{New: func() any { return new(evalScratch) }}

// evaluate validates the action, walks its dispatch bucket into the
// scratch (a pooled one when sc is nil), and returns the interned shape
// under the caller's action.
func (e *Engine) evaluate(a Action, sc *evalScratch) (Ruling, error) {
	if e.statsOn {
		e.counters.evaluations.Add(1)
	}
	if err := a.Validate(); err != nil {
		if e.statsOn {
			e.counters.invalid.Add(1)
		}
		return Ruling{}, err
	}
	if sc == nil {
		sc = scratchPool.Get().(*evalScratch)
		defer scratchPool.Put(sc)
	}
	r := e.evaluateDispatch(a, sc)
	r.validated = true
	return r, nil
}
