package legal

import (
	"reflect"
	"strings"
	"testing"
)

// sweepActions enumerates a broad grid of action shapes, shared by the
// batch, shape-table, and rule-table tests.
func sweepActions() []Action {
	var out []Action
	consents := []*Consent{
		nil,
		{Scope: ConsentCommunicationParty},
		{Scope: ConsentVictimTrespasser},
		{Scope: ConsentOwnData},
		{Scope: ConsentProviderToS},
		{Scope: ConsentCommunicationParty, AllPartiesRequired: true},
		{Scope: ConsentVictimTrespasser, ExceedsScope: true},
	}
	for actor := ActorGovernment; actor <= ActorProvider; actor++ {
		for timing := TimingRealTime; timing <= TimingStored; timing++ {
			for data := DataContent; data <= DataDeviceContents; data++ {
				for src := SourceOwnNetwork; src <= SourceTargetDevice; src++ {
					for ci, consent := range consents {
						out = append(out, Action{
							Name:         "sweep",
							Actor:        actor,
							Timing:       timing,
							Data:         data,
							Source:       src,
							Consent:      consent,
							ProviderRole: ProviderECS,
							Encrypted:    ci%2 == 0,
						})
					}
				}
			}
		}
	}
	return out
}

// TestDefaultRulesNamedAndOrdered sanity-checks the doctrine table: every
// rule is named and documented, names are unique, and the actor screen
// precedes everything else (the paper's precedence order).
func TestDefaultRulesNamedAndOrdered(t *testing.T) {
	rules := DefaultRules()
	if len(rules) < 20 {
		t.Fatalf("doctrine table has %d rules, expected the full catalog", len(rules))
	}
	seen := map[string]bool{}
	for _, r := range rules {
		if r.Name == "" || r.Doc == "" {
			t.Fatalf("rule %+v lacks a name or doc", r.Name)
		}
		if seen[r.Name] {
			t.Fatalf("duplicate rule name %q", r.Name)
		}
		seen[r.Name] = true
	}
	if rules[0].Name != "private-search" {
		t.Errorf("actor screen must lead the table, got %q first", rules[0].Name)
	}
	for _, name := range []string{
		"private-search", "provider-own-system", "plain-view", "probation",
		"trespasser-consent", "party-consent", "title3-default",
		"pentrap-default", "sca-consent", "sca-content-warrant",
		"container-new-search", "lawful-custody", "workplace-lawful",
		"rep-analysis", "no-rep", "fourth-consent", "fourth-exigency",
		"warrant-default",
	} {
		if !seen[name] {
			t.Errorf("doctrine %q missing from the table", name)
		}
	}
}

// TestRulingAppliedAuditTrail: every ruling names the rules that produced
// it, in pipeline order.
func TestRulingAppliedAuditTrail(t *testing.T) {
	e := NewEngine()
	r, err := e.Evaluate(Action{
		Name:   "audit",
		Actor:  ActorGovernment,
		Timing: TimingRealTime,
		Data:   DataContent,
		Source: SourceWirelessBroadcast,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"title3-default", "streetview-note"}
	if !reflect.DeepEqual(r.Applied, want) {
		t.Errorf("Applied = %v, want %v", r.Applied, want)
	}
}

// TestRegisterSyntheticRule is the extensibility acceptance test: adding a
// new doctrine touches only the rule table. A synthetic "border search"
// doctrine is registered on a custom engine; the custom engine applies it,
// the default engine is unaffected, and no engine code changed.
func TestRegisterSyntheticRule(t *testing.T) {
	// The synthetic doctrine: device examinations at the border (modeled
	// here on the ExposurePublicPlace fact for the test's purposes) need
	// no warrant.
	border := Rule{
		Name: "synthetic-border-search",
		Doc:  "border searches of devices need no warrant (synthetic test doctrine)",
		When: func(rc *RuleContext) bool {
			return rc.Action.Timing == TimingStored &&
				rc.Action.Data == DataDeviceContents &&
				rc.Action.HasExposure(ExposurePublicPlace)
		},
		Apply: func(rc *RuleContext) {
			rc.Require(ProcessNone, RegimeFourthAmendment,
				"synthetic border-search doctrine: routine device examination at the border requires no warrant")
			rc.Except(ExceptionNoREP, "synthetic border-search exception")
		},
		Citations: []string{"4A"},
		Terminal:  true,
	}
	table, err := InsertRuleBefore(DefaultRules(), "rep-analysis", border)
	if err != nil {
		t.Fatal(err)
	}

	action := Action{
		Name:     "laptop-at-border",
		Actor:    ActorGovernment,
		Timing:   TimingStored,
		Data:     DataDeviceContents,
		Source:   SourceTargetDevice,
		Exposure: []ExposureFact{ExposurePublicPlace},
	}

	custom := NewEngine(WithRules(table))
	r, err := custom.Evaluate(action)
	if err != nil {
		t.Fatal(err)
	}
	if r.Required != ProcessNone {
		t.Errorf("custom engine: required = %v, want none", r.Required)
	}
	if len(r.Applied) == 0 || r.Applied[len(r.Applied)-1] != "synthetic-border-search" {
		t.Errorf("custom engine did not apply the synthetic rule: %v", r.Applied)
	}

	// The default engine must be untouched by the custom table.
	base, err := NewEngine().Evaluate(action)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range base.Applied {
		if strings.HasPrefix(name, "synthetic-") {
			t.Errorf("default engine applied synthetic rule %q", name)
		}
	}
}

func TestInsertRuleBeforeUnknownName(t *testing.T) {
	if _, err := InsertRuleBefore(DefaultRules(), "no-such-rule", Rule{Name: "x"}); err == nil {
		t.Error("inserting before an unknown rule must fail")
	}
}

// TestRulesReturnsCopy: mutating the returned slice must not corrupt the
// engine's table.
func TestRulesReturnsCopy(t *testing.T) {
	e := NewEngine()
	rules := e.Rules()
	rules[0] = Rule{Name: "clobbered", Terminal: true}
	r, err := e.Evaluate(Action{
		Name:   "still-works",
		Actor:  ActorPrivate,
		Timing: TimingStored,
		Data:   DataDeviceContents,
		Source: SourceTargetDevice,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !r.HasException(ExceptionPrivateSearch) {
		t.Error("engine table was mutated through Rules()")
	}
}

// TestExceptionsDeduplicated: repeated reliance on the same exception kind
// records it once (first reliance wins), while every reason still joins
// the rationale — the same contract citations follow.
func TestExceptionsDeduplicated(t *testing.T) {
	var r Ruling
	r.except(ExceptionConsent, "first reliance")
	r.except(ExceptionNoREP, "different doctrine")
	r.except(ExceptionConsent, "second reliance")
	want := []ExceptionKind{ExceptionConsent, ExceptionNoREP}
	if !reflect.DeepEqual(r.Exceptions, want) {
		t.Errorf("Exceptions = %v, want %v", r.Exceptions, want)
	}
	if len(r.Rationale) != 3 {
		t.Errorf("rationale lines = %d, want 3 (reasons are never dropped)", len(r.Rationale))
	}

	// And through a rule table: a synthetic doubled-exception rule.
	doubled := Rule{
		Name: "synthetic-doubled",
		Doc:  "relies on the same exception twice",
		When: func(rc *RuleContext) bool { return true },
		Apply: func(rc *RuleContext) {
			rc.Require(ProcessNone, RegimeNone, "synthetic")
			rc.Except(ExceptionConsent, "once")
			rc.Except(ExceptionConsent, "twice")
		},
		Terminal: true,
	}
	e := NewEngine(WithRules([]Rule{doubled}))
	got, err := e.Evaluate(Action{
		Name: "dedup", Actor: ActorGovernment, Timing: TimingStored,
		Data: DataDeviceContents, Source: SourceTargetDevice,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Exceptions) != 1 {
		t.Errorf("pipeline exceptions = %v, want a single deduplicated entry", got.Exceptions)
	}
}

// TestPipelineMatchesAdvisedCounterfactuals: every counterfactual the
// table registers produces a valid action.
func TestCounterfactualsProduceValidActions(t *testing.T) {
	rules := DefaultRules()
	n := 0
	for _, a := range sweepActions() {
		for i := range rules {
			if rules[i].Counterfactual == nil {
				continue
			}
			alt, explanation, ok := rules[i].Counterfactual(a)
			if !ok {
				continue
			}
			n++
			if err := alt.Validate(); err != nil {
				t.Fatalf("rule %q counterfactual invalid: %v", rules[i].Name, err)
			}
			if explanation == "" {
				t.Fatalf("rule %q counterfactual lacks explanation", rules[i].Name)
			}
			if !strings.HasPrefix(alt.Name, a.Name+"+") {
				t.Fatalf("rule %q counterfactual name %q does not extend %q", rules[i].Name, alt.Name, a.Name)
			}
		}
	}
	if n == 0 {
		t.Fatal("no counterfactuals fired across the sweep")
	}
}
