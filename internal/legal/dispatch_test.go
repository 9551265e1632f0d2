package legal

import (
	"context"
	"reflect"
	"testing"
)

// variantsOf builds a spread of actions on one (actor, timing, data,
// source) coordinate: flag combinations, each optional sub-struct, and
// exposure lists, so the dispatch/linear equivalence sweep exercises
// every rule predicate's inputs, not just the four indexed dimensions.
func variantsOf(base Action) []Action {
	vs := make([]Action, 0, 8)
	add := func(mut func(*Action)) {
		a := base
		mut(&a)
		vs = append(vs, a)
	}
	add(func(a *Action) {})
	add(func(a *Action) {
		a.Encrypted = true
		a.PlainView = true
		a.LawfulVantage = true
	})
	add(func(a *Action) {
		a.ProbationSearch = true
		a.SearchBeyondAuthority = true
		a.ProviderRole = ProviderECS
		a.ProviderPublic = true
	})
	add(func(a *Action) {
		a.Consent = &Consent{Scope: ConsentCommunicationParty}
		a.InterceptsThirdParty = true
	})
	add(func(a *Action) {
		a.Consent = &Consent{Scope: ConsentCoUserSharedSpace, ExceedsScope: true}
		a.Exigency = &Exigency{Kind: ExigencyEvidenceDestruction, Approved: true}
	})
	add(func(a *Action) {
		a.Exigency = &Exigency{Kind: ExigencyEmergencyPenTrap, Approved: true}
		a.Exposure = []ExposureFact{ExposureKnowinglyPublic, ExposureDelivered}
	})
	add(func(a *Action) {
		a.Tech = &SpecializedTech{GeneralPublicUse: false, RevealsHomeInterior: true}
		a.Workplace = &WorkplaceSearch{GovernmentEmployer: true, WorkRelated: true, JustifiedAtInception: true, PermissibleScope: true}
	})
	add(func(a *Action) {
		a.ProviderRole = ProviderRCS
		a.ProviderPublic = true
		a.Exposure = []ExposureFact{ExposurePolicyEliminatesREP}
		a.Consent = &Consent{Scope: ConsentProviderToS}
	})
	return vs
}

// TestDispatchMatchesLinearExhaustive proves the compiled dispatch walk
// byte-identical to the naive full-table scan over the exhaustive enum
// sweep times a spread of flag/sub-struct variants, under both
// container doctrines, through the reused scratch and the shape table.
func TestDispatchMatchesLinearExhaustive(t *testing.T) {
	for _, doctrine := range []ContainerDoctrine{ContainerPerFile, ContainerSingle} {
		e := NewEngine(WithContainerDoctrine(doctrine))
		var sc evalScratch
		checked := 0
		forEachCombo(func(a Actor, tm Timing, d DataClass, s Source) {
			base := Action{Name: "sweep", Actor: a, Timing: tm, Data: d, Source: s}
			for _, v := range variantsOf(base) {
				want := e.evaluateLinear(v)
				got := e.evaluateDispatch(v, &sc)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("doctrine %v: dispatch diverged from linear for %+v:\n got %+v\nwant %+v",
						doctrine, v, got, want)
				}
				checked++
			}
		})
		if checked == 0 {
			t.Fatal("sweep visited no combinations")
		}
	}
}

// TestDispatchOutOfRangeFallsBackToFullTable pins the bucketFor
// fallback: coordinates outside the enum ranges (which Validate rejects
// before evaluation, but the walk must still be total) use the full
// table and therefore agree with the linear scan.
func TestDispatchOutOfRangeFallsBackToFullTable(t *testing.T) {
	e := NewEngine()
	var sc evalScratch
	for _, a := range []Action{
		{Name: "oob", Actor: Actor(99), Timing: TimingStored, Data: DataContent, Source: SourceOwnNetwork},
		{Name: "oob", Actor: ActorGovernment, Timing: Timing(-1), Data: DataContent, Source: SourceOwnNetwork},
	} {
		if got := e.dispatch.bucketFor(&a); !reflect.DeepEqual(got, e.dispatch.all) {
			t.Fatalf("out-of-range action %+v did not fall back to the full table", a)
		}
		if got, want := e.evaluateDispatch(a, &sc), e.evaluateLinear(a); !reflect.DeepEqual(got, want) {
			t.Fatalf("out-of-range dispatch diverged:\n got %+v\nwant %+v", got, want)
		}
	}
}

// TestDispatchMatchesLinearCustomRules proves that a custom table whose
// rules carry no Match metadata keeps exact linear semantics: every
// zero-Match rule lands in every bucket.
func TestDispatchMatchesLinearCustomRules(t *testing.T) {
	rules := []Rule{
		{
			Name: "custom-realtime",
			When: func(rc *RuleContext) bool { return rc.Action.Timing == TimingRealTime },
			Apply: func(rc *RuleContext) {
				rc.ruling.require(ProcessWiretapOrder, RegimeWiretap, "custom realtime")
			},
			Terminal: true,
		},
		{
			Name: "custom-default",
			Apply: func(rc *RuleContext) {
				rc.ruling.require(ProcessSearchWarrant, RegimeFourthAmendment, "custom default")
			},
			Terminal: true,
		},
	}
	e := NewEngine(WithRules(rules))
	for _, b := range e.dispatch.buckets {
		if len(b) != len(rules) {
			t.Fatalf("zero-Match rules must land in every bucket; got bucket %v", b)
		}
	}
	var sc evalScratch
	forEachCombo(func(a Actor, tm Timing, d DataClass, s Source) {
		v := Action{Name: "custom", Actor: a, Timing: tm, Data: d, Source: s}
		if got, want := e.evaluateDispatch(v, &sc), e.evaluateLinear(v); !reflect.DeepEqual(got, want) {
			t.Fatalf("custom-table dispatch diverged for %+v:\n got %+v\nwant %+v", v, got, want)
		}
	})
}

// TestDispatchSelectivity asserts the point of compiling the table:
// every bucket of the default table is strictly smaller than the table,
// so no action ever pays the full linear scan.
func TestDispatchSelectivity(t *testing.T) {
	e := NewEngine()
	total := len(e.rules)
	max := 0
	for i, b := range e.dispatch.buckets {
		if len(b) >= total {
			t.Errorf("bucket %d holds %d of %d rules; dispatch gains nothing there", i, len(b), total)
		}
		if len(b) > max {
			max = len(b)
		}
	}
	if max == 0 {
		t.Fatal("dispatch index has no populated buckets")
	}
	t.Logf("rule table %d, widest bucket %d", total, max)
}

// TestBatchDedupOrder is the regression test for repeated actions in a
// batch: duplicate slots must receive rulings equal to the first
// occurrence's at their original indices, errors included, and every
// slot counts as an evaluation.
func TestBatchDedupOrder(t *testing.T) {
	e := NewEngine(WithBatchWorkers(3), WithEngineStats())
	mk := func(name string, d DataClass) Action {
		return Action{Name: name, Actor: ActorGovernment, Timing: TimingStored, Data: d, Source: SourceSeizedDevice}
	}
	a := mk("alpha", DataContent)
	b := mk("bravo", DataDeviceContents)
	bad := Action{Name: "bad", Actor: Actor(99), Timing: TimingStored, Data: DataContent, Source: SourceSeizedDevice}
	batch := []Action{a, b, a, bad, b, a, bad}

	rulings, err := e.EvaluateBatch(context.Background(), batch)
	if err == nil {
		t.Fatal("expected an error for the invalid slots")
	}
	if len(rulings) != len(batch) {
		t.Fatalf("got %d rulings for %d actions", len(rulings), len(batch))
	}
	for i, r := range rulings {
		if batch[i].Actor == Actor(99) {
			if r.Regime != 0 {
				t.Fatalf("invalid slot %d received a ruling: %+v", i, r)
			}
			continue
		}
		if r.Action.Name != batch[i].Name {
			t.Fatalf("slot %d holds ruling for %q, want %q", i, r.Action.Name, batch[i].Name)
		}
	}
	for _, pair := range [][2]int{{0, 2}, {0, 5}, {1, 4}} {
		if !reflect.DeepEqual(rulings[pair[0]], rulings[pair[1]]) {
			t.Fatalf("duplicate slots %v diverged:\n%+v\n%+v", pair, rulings[pair[0]], rulings[pair[1]])
		}
	}
	// Seven slots evaluated, two of them invalid.
	s := e.Stats()
	if s.Evaluations != 7 || s.InvalidActions != 2 {
		t.Fatalf("stats after batch = %+v, want 7 evaluations / 2 invalid", s)
	}
}
