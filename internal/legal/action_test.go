package legal

import (
	"reflect"
	"strings"
	"testing"
)

func validAction() Action {
	return Action{
		Name:   "test",
		Actor:  ActorGovernment,
		Timing: TimingRealTime,
		Data:   DataContent,
		Source: SourceThirdPartyNetwork,
	}
}

func TestActionValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Action)
		wantErr string
	}{
		{name: "valid", mutate: func(a *Action) {}, wantErr: ""},
		{
			name:    "invalid actor",
			mutate:  func(a *Action) { a.Actor = Actor(0) },
			wantErr: "invalid actor",
		},
		{
			name:    "invalid timing",
			mutate:  func(a *Action) { a.Timing = Timing(9) },
			wantErr: "invalid timing",
		},
		{
			name:    "invalid data class",
			mutate:  func(a *Action) { a.Data = DataClass(-1) },
			wantErr: "invalid data class",
		},
		{
			name:    "invalid source",
			mutate:  func(a *Action) { a.Source = Source(77) },
			wantErr: "invalid source",
		},
		{
			name:    "invalid provider role",
			mutate:  func(a *Action) { a.ProviderRole = ProviderRole(42) },
			wantErr: "invalid provider role",
		},
		{
			name:    "zero provider role allowed",
			mutate:  func(a *Action) { a.ProviderRole = 0 },
			wantErr: "",
		},
		{
			name:    "invalid exposure fact",
			mutate:  func(a *Action) { a.Exposure = []ExposureFact{ExposureFact(99)} },
			wantErr: "invalid exposure fact",
		},
		{
			name:    "invalid consent scope",
			mutate:  func(a *Action) { a.Consent = &Consent{Scope: ConsentScope(0)} },
			wantErr: "invalid consent scope",
		},
		{
			name:    "invalid exigency kind",
			mutate:  func(a *Action) { a.Exigency = &Exigency{Kind: ExigencyKind(0)} },
			wantErr: "invalid exigency kind",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			a := validAction()
			tt.mutate(&a)
			err := a.Validate()
			if tt.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate() = nil, want error containing %q", tt.wantErr)
			}
			if !strings.Contains(err.Error(), tt.wantErr) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tt.wantErr)
			}
		})
	}
}

func TestNilActionValidate(t *testing.T) {
	var a *Action
	if err := a.Validate(); err == nil {
		t.Fatal("nil action must not validate")
	}
}

func TestConsentEffective(t *testing.T) {
	tests := []struct {
		name string
		c    *Consent
		want bool
	}{
		{name: "nil", c: nil, want: false},
		{name: "plain", c: &Consent{Scope: ConsentOwnData}, want: true},
		{name: "revoked", c: &Consent{Scope: ConsentOwnData, Revoked: true}, want: false},
		{name: "exceeds scope", c: &Consent{Scope: ConsentVictimTrespasser, ExceedsScope: true}, want: false},
		{
			name: "single-party consent in all-party state",
			c:    &Consent{Scope: ConsentCommunicationParty, AllPartiesRequired: true},
			want: false,
		},
		{
			name: "single-party consent in one-party state",
			c:    &Consent{Scope: ConsentCommunicationParty},
			want: true,
		},
		{
			name: "all-party flag irrelevant to other scopes",
			c:    &Consent{Scope: ConsentSpouse, AllPartiesRequired: true},
			want: true,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.c.Effective(); got != tt.want {
				t.Errorf("Effective() = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestExigencyEffective(t *testing.T) {
	tests := []struct {
		name string
		x    *Exigency
		want bool
	}{
		{name: "nil", x: nil, want: false},
		{name: "destruction", x: &Exigency{Kind: ExigencyEvidenceDestruction}, want: true},
		{name: "danger", x: &Exigency{Kind: ExigencyDanger}, want: true},
		{name: "hot pursuit", x: &Exigency{Kind: ExigencyHotPursuit}, want: true},
		{name: "escape", x: &Exigency{Kind: ExigencyEscape}, want: true},
		{
			name: "emergency pen/trap unapproved",
			x:    &Exigency{Kind: ExigencyEmergencyPenTrap},
			want: false,
		},
		{
			name: "emergency pen/trap approved",
			x:    &Exigency{Kind: ExigencyEmergencyPenTrap, Approved: true},
			want: true,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.x.Effective(); got != tt.want {
				t.Errorf("Effective() = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestSpecializedTechTriggersKyllo(t *testing.T) {
	tests := []struct {
		name string
		tech *SpecializedTech
		want bool
	}{
		{name: "nil", tech: nil, want: false},
		{
			name: "thermal imager",
			tech: &SpecializedTech{GeneralPublicUse: false, RevealsHomeInterior: true},
			want: true,
		},
		{
			name: "binoculars",
			tech: &SpecializedTech{GeneralPublicUse: true, RevealsHomeInterior: true},
			want: false,
		},
		{
			name: "exotic but exterior only",
			tech: &SpecializedTech{GeneralPublicUse: false, RevealsHomeInterior: false},
			want: false,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.tech.TriggersKyllo(); got != tt.want {
				t.Errorf("TriggersKyllo() = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestHasExposure(t *testing.T) {
	a := validAction()
	a.Exposure = []ExposureFact{ExposureSharedFolder, ExposureDelivered}
	if !a.HasExposure(ExposureSharedFolder) {
		t.Error("expected shared-folder exposure present")
	}
	if a.HasExposure(ExposureAbandoned) {
		t.Error("unexpected abandoned exposure")
	}
}

func TestEnumStrings(t *testing.T) {
	// Every defined enum value must render a non-placeholder string;
	// out-of-range values must render the numeric placeholder.
	for a := ActorGovernment; a <= ActorProvider; a++ {
		if strings.HasPrefix(a.String(), "Actor(") {
			t.Errorf("actor %d has placeholder string", int(a))
		}
	}
	if Actor(0).String() != "Actor(0)" {
		t.Errorf("Actor(0).String() = %q", Actor(0).String())
	}
	for d := DataContent; d <= DataDeviceContents; d++ {
		if strings.HasPrefix(d.String(), "DataClass(") {
			t.Errorf("data class %d has placeholder string", int(d))
		}
	}
	for s := SourceOwnNetwork; s <= SourceTargetDevice; s++ {
		if strings.HasPrefix(s.String(), "Source(") {
			t.Errorf("source %d has placeholder string", int(s))
		}
	}
	for e := ExposureKnowinglyPublic; e <= ExposureAbandoned; e++ {
		if strings.HasPrefix(e.String(), "ExposureFact(") {
			t.Errorf("exposure fact %d has placeholder string", int(e))
		}
	}
	for c := ConsentOwnData; c <= ConsentVictimTrespasser; c++ {
		if strings.HasPrefix(c.String(), "ConsentScope(") {
			t.Errorf("consent scope %d has placeholder string", int(c))
		}
	}
	for x := ExigencyEvidenceDestruction; x <= ExigencyEmergencyPenTrap; x++ {
		if strings.HasPrefix(x.String(), "ExigencyKind(") {
			t.Errorf("exigency kind %d has placeholder string", int(x))
		}
	}
	for k := ExceptionNoREP; k <= ExceptionWorkplace; k++ {
		if strings.HasPrefix(k.String(), "ExceptionKind(") {
			t.Errorf("exception kind %d has placeholder string", int(k))
		}
		if !k.Valid() {
			t.Errorf("exception kind %d should be valid", int(k))
		}
	}
	for p := ProviderNone; p <= ProviderRCS; p++ {
		if strings.HasPrefix(p.String(), "ProviderRole(") {
			t.Errorf("provider role %d has placeholder string", int(p))
		}
	}
	for r := RegimeNone; r <= RegimeSCA; r++ {
		if strings.HasPrefix(r.String(), "Regime(") {
			t.Errorf("regime %d has placeholder string", int(r))
		}
	}
	if Timing(3).String() != "Timing(3)" {
		t.Errorf("Timing(3).String() = %q", Timing(3).String())
	}
}

func TestCite(t *testing.T) {
	katz := Cite("Katz")
	if katz.ID != "Katz" || !strings.Contains(katz.Title, "389 U.S. 347") {
		t.Errorf("Cite(Katz) = %+v", katz)
	}
	unknown := Cite("NoSuchCase")
	if unknown.ID != "NoSuchCase" || unknown.Title != "NoSuchCase" {
		t.Errorf("Cite(unknown) = %+v", unknown)
	}
	ids := KnownCitationIDs()
	if len(ids) < 20 {
		t.Errorf("citation catalog unexpectedly small: %d entries", len(ids))
	}
	seen := make(map[string]bool, len(ids))
	for _, id := range ids {
		if seen[id] {
			t.Errorf("duplicate citation id %q", id)
		}
		seen[id] = true
		if Cite(id).Title == id {
			t.Errorf("citation %q has no expanded title", id)
		}
	}
}

// TestFingerprintDistinguishesActions: any two distinct sweep actions must
// have distinct fingerprints — a collision would silently serve the wrong
// ruling.
func TestFingerprintDistinguishesActions(t *testing.T) {
	seen := make(map[string]Action)
	for _, a := range sweepActions() {
		a := a
		fp := a.Fingerprint()
		if prev, ok := seen[fp]; ok && !reflect.DeepEqual(prev, a) {
			t.Fatalf("fingerprint collision:\n  %+v\n  %+v", prev, a)
		}
		seen[fp] = a
	}

	// Pointer sub-structures must be encoded by value, not identity.
	base := Action{
		Name: "fp", Actor: ActorGovernment, Timing: TimingStored,
		Data: DataDeviceContents, Source: SourceTargetDevice,
	}
	variants := []Action{base}
	withConsent := base
	withConsent.Consent = &Consent{Scope: ConsentOwnData}
	withRevoked := base
	withRevoked.Consent = &Consent{Scope: ConsentOwnData, Revoked: true}
	withTech := base
	withTech.Tech = &SpecializedTech{RevealsHomeInterior: true}
	withWorkplace := base
	withWorkplace.Workplace = &WorkplaceSearch{GovernmentEmployer: true}
	withExigency := base
	withExigency.Exigency = &Exigency{Kind: ExigencyDanger}
	withExposure := base
	withExposure.Exposure = []ExposureFact{ExposureAbandoned}
	withName := base
	withName.Name = "fp2"
	variants = append(variants, withConsent, withRevoked, withTech,
		withWorkplace, withExigency, withExposure, withName)
	fps := make(map[string]bool)
	for _, v := range variants {
		fp := v.Fingerprint()
		if fps[fp] {
			t.Fatalf("variant fingerprint collision: %q", fp)
		}
		fps[fp] = true
	}
}

// TestFingerprintStable: equal actions (including deep-equal pointer
// fields at different addresses) share a fingerprint.
func TestFingerprintStable(t *testing.T) {
	a := Action{
		Name: "stable", Actor: ActorGovernment, Timing: TimingRealTime,
		Data: DataContent, Source: SourceVictimSystem,
		Consent:  &Consent{Scope: ConsentVictimTrespasser},
		Exposure: []ExposureFact{ExposureDelivered},
	}
	b := a
	b.Consent = &Consent{Scope: ConsentVictimTrespasser}
	b.Exposure = []ExposureFact{ExposureDelivered}
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("deep-equal actions produced different fingerprints")
	}
}
