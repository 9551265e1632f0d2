package legal

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// privacyOf runs the REP analysis into a fresh finding.
func privacyOf(a *Action) PrivacyFinding {
	var f PrivacyFinding
	analyzePrivacy(a, &f)
	return f
}

func TestAnalyzePrivacyBaseline(t *testing.T) {
	// A private communication's content, with no exposure facts,
	// retains REP.
	a := Action{
		Name:   "private-content",
		Actor:  ActorGovernment,
		Timing: TimingStored,
		Data:   DataContent,
		Source: SourceTargetDevice,
	}
	f := privacyOf(&a)
	if !f.Reasonable {
		t.Fatalf("private content should retain REP; reasons: %v", f.Reasons)
	}
	if len(f.Citations) == 0 || f.Citations[0].ID != "Katz" {
		t.Errorf("REP analysis must lead with Katz; got %+v", f.Citations)
	}
}

func TestAnalyzePrivacyDeviceContents(t *testing.T) {
	a := Action{
		Name:   "closed-container",
		Actor:  ActorGovernment,
		Timing: TimingStored,
		Data:   DataDeviceContents,
		Source: SourceTargetDevice,
	}
	f := privacyOf(&a)
	if !f.Reasonable {
		t.Fatalf("device contents are a closed container with REP; reasons: %v", f.Reasons)
	}
}

func TestAnalyzePrivacyExposureFacts(t *testing.T) {
	base := Action{
		Name:   "exposed",
		Actor:  ActorGovernment,
		Timing: TimingStored,
		Data:   DataDeviceContents,
		Source: SourceTargetDevice,
	}
	facts := []ExposureFact{
		ExposureKnowinglyPublic,
		ExposureSharedFolder,
		ExposureDelivered,
		ExposureRelinquished,
		ExposurePolicyEliminatesREP,
		ExposurePublicPlace,
		ExposureCredentialsObtained,
		ExposureAbandoned,
	}
	for _, fact := range facts {
		t.Run(fact.String(), func(t *testing.T) {
			a := base
			a.Exposure = []ExposureFact{fact}
			f := privacyOf(&a)
			if f.Reasonable {
				t.Errorf("exposure fact %v must defeat REP", fact)
			}
			if len(f.Reasons) == 0 {
				t.Errorf("exposure fact %v must produce a reason", fact)
			}
		})
	}
}

func TestAnalyzePrivacyPublicData(t *testing.T) {
	a := Action{
		Name:   "public-data",
		Actor:  ActorGovernment,
		Timing: TimingStored,
		Data:   DataPublic,
		Source: SourcePublicService,
	}
	if f := privacyOf(&a); f.Reasonable {
		t.Error("public data must carry no REP")
	}
}

func TestAnalyzePrivacyAddressing(t *testing.T) {
	// Smith v. Maryland: no constitutional REP in addressing conveyed
	// to the carrier.
	a := Action{
		Name:   "pen-register-data",
		Actor:  ActorGovernment,
		Timing: TimingStored,
		Data:   DataAddressing,
		Source: SourceThirdPartyNetwork,
	}
	f := privacyOf(&a)
	if f.Reasonable {
		t.Error("addressing information must carry no constitutional REP")
	}
	var cited bool
	for _, c := range f.Citations {
		if c.ID == "Smith" {
			cited = true
		}
	}
	if !cited {
		t.Error("addressing finding must cite Smith v. Maryland")
	}
}

func TestAnalyzePrivacyKyllo(t *testing.T) {
	// Kyllo: specialized technology revealing the home interior is a
	// search even when the target "exposed" heat to the outside.
	a := Action{
		Name:     "thermal-imager",
		Actor:    ActorGovernment,
		Timing:   TimingStored,
		Data:     DataDeviceContents,
		Source:   SourceTargetDevice,
		Exposure: []ExposureFact{ExposureKnowinglyPublic},
		Tech:     &SpecializedTech{GeneralPublicUse: false, RevealsHomeInterior: true},
	}
	f := privacyOf(&a)
	if !f.Reasonable {
		t.Fatal("Kyllo technology must restore the search finding despite exposure")
	}
	var cited bool
	for _, c := range f.Citations {
		if c.ID == "Kyllo" {
			cited = true
		}
	}
	if !cited {
		t.Error("Kyllo finding must cite Kyllo")
	}
}

func TestAnalyzePrivacyGeneralPublicUseTech(t *testing.T) {
	a := Action{
		Name:   "binoculars",
		Actor:  ActorGovernment,
		Timing: TimingStored,
		Data:   DataDeviceContents,
		Source: SourceTargetDevice,
		Tech:   &SpecializedTech{GeneralPublicUse: true, RevealsHomeInterior: true},
	}
	f := privacyOf(&a)
	// Technology in general public use does not trigger Kyllo; the
	// baseline closed-container REP still holds here because no exposure
	// facts are present.
	if !f.Reasonable {
		t.Error("general-public-use technology alone must not defeat the analysis")
	}
}

// Property: adding exposure facts never *creates* REP (monotone
// destruction), absent Kyllo technology.
func TestExposureMonotonicity(t *testing.T) {
	allFacts := []ExposureFact{
		ExposureKnowinglyPublic, ExposureSharedFolder, ExposureDelivered,
		ExposureRelinquished, ExposurePolicyEliminatesREP,
		ExposurePublicPlace, ExposureCredentialsObtained, ExposureAbandoned,
	}
	f := func(mask uint8, extra uint8) bool {
		var base []ExposureFact
		for i, fact := range allFacts {
			if mask&(1<<i) != 0 {
				base = append(base, fact)
			}
		}
		a := Action{
			Name:     "prop",
			Actor:    ActorGovernment,
			Timing:   TimingStored,
			Data:     DataDeviceContents,
			Source:   SourceTargetDevice,
			Exposure: base,
		}
		before := privacyOf(&a)
		a.Exposure = append(append([]ExposureFact{}, base...), allFacts[int(extra)%len(allFacts)])
		after := privacyOf(&a)
		// REP can only be destroyed by adding facts, never created.
		if !before.Reasonable {
			return !after.Reasonable
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Errorf("exposure monotonicity violated: %v", err)
	}
}

// Property: analyzePrivacy is order-insensitive in its verdict — permuting
// the exposure facts never changes whether REP survives.
func TestExposureOrderInvariance(t *testing.T) {
	allFacts := []ExposureFact{
		ExposureKnowinglyPublic, ExposureSharedFolder, ExposureDelivered,
		ExposureRelinquished, ExposurePolicyEliminatesREP,
		ExposurePublicPlace, ExposureCredentialsObtained, ExposureAbandoned,
	}
	rng := rand.New(rand.NewSource(7))
	f := func(mask uint8) bool {
		var facts []ExposureFact
		for i, fact := range allFacts {
			if mask&(1<<i) != 0 {
				facts = append(facts, fact)
			}
		}
		a := Action{
			Name:     "perm",
			Actor:    ActorGovernment,
			Timing:   TimingStored,
			Data:     DataDeviceContents,
			Source:   SourceTargetDevice,
			Exposure: facts,
		}
		want := privacyOf(&a).Reasonable
		shuffled := append([]ExposureFact{}, facts...)
		rng.Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		a.Exposure = shuffled
		return privacyOf(&a).Reasonable == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Errorf("exposure order invariance violated: %v", err)
	}
}
