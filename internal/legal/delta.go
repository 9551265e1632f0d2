package legal

import (
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
)

// Event-carried Action deltas. The paper's rulings hinge on facts that
// change mid-capture — a pen/trap order expiring, a probe's scope
// creeping from headers into content, a consent revoked — so the layers
// above the engine (capture monitors, the evidence locker) describe an
// evolving acquisition as a base Action plus a stream of small typed
// mutations rather than re-materializing a full Action per event. An
// ActionDelta carries each mutation with both its old and new value, so
// it can be applied, un-applied and canonically encoded for audit
// trails. Engine.EvaluateDelta consumes deltas directly and
// proves, via the dispatch index's per-bucket field-sensitivity
// bitsets, when the prior ruling necessarily still holds.

// Field identifies one mutable field of an Action for delta purposes.
// The four enum dimensions (actor, timing, data, source) double as the
// dispatch coordinates: a delta touching any of them always forces a
// fresh bucket walk.
type Field uint8

// Action fields addressable by a delta.
const (
	FieldName Field = iota
	FieldActor
	FieldTiming
	FieldData
	FieldSource
	FieldEncrypted
	FieldExposure
	FieldConsent
	FieldExigency
	FieldPlainView
	FieldLawfulVantage
	FieldProbationSearch
	FieldTech
	FieldWorkplace
	FieldProviderRole
	FieldProviderPublic
	FieldInterceptsThirdParty
	FieldSearchBeyondAuthority
	numFields
)

var fieldNames = [numFields]string{
	FieldName:                  "name",
	FieldActor:                 "actor",
	FieldTiming:                "timing",
	FieldData:                  "data",
	FieldSource:                "source",
	FieldEncrypted:             "encrypted",
	FieldExposure:              "exposure",
	FieldConsent:               "consent",
	FieldExigency:              "exigency",
	FieldPlainView:             "plain-view",
	FieldLawfulVantage:         "lawful-vantage",
	FieldProbationSearch:       "probation-search",
	FieldTech:                  "tech",
	FieldWorkplace:             "workplace",
	FieldProviderRole:          "provider-role",
	FieldProviderPublic:        "provider-public",
	FieldInterceptsThirdParty:  "intercepts-third-party",
	FieldSearchBeyondAuthority: "search-beyond-authority",
}

// String returns the field's canonical name.
func (f Field) String() string {
	if f < numFields {
		return fieldNames[f]
	}
	return fmt.Sprintf("Field(%d)", int(f))
}

// MarshalJSON encodes the field as its canonical name, so JSONL delta
// streams (cmd/evaluate -deltas) are hand-writable.
func (f Field) MarshalJSON() ([]byte, error) {
	if f < numFields {
		return json.Marshal(fieldNames[f])
	}
	return json.Marshal(int(f))
}

// UnmarshalJSON accepts the canonical name or a raw integer.
func (f *Field) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err == nil {
		for i, name := range fieldNames {
			if name == s {
				*f = Field(i)
				return nil
			}
		}
		return fmt.Errorf("legal: unknown delta field %q", s)
	}
	var n int
	if err := json.Unmarshal(data, &n); err != nil {
		return fmt.Errorf("legal: delta field must be a name or integer: %s", data)
	}
	*f = Field(n)
	return nil
}

// FieldMask is a bitset over Field values; bit f set means field f.
type FieldMask uint32

const (
	fieldMaskAll FieldMask = 1<<numFields - 1
	// dimFieldMask covers the four dispatch dimensions; a delta touching
	// any of them moves the action to a different dispatch bucket.
	dimFieldMask = 1<<FieldActor | 1<<FieldTiming | 1<<FieldData | 1<<FieldSource
)

// FieldDelta is one field-level mutation, carrying both sides of the
// change so the delta can be applied forward and un-applied in reverse.
// Exactly one pair of slots is meaningful, selected by Field: Old/New
// for enum and flag fields (flags as 0/1), OldName/NewName for
// FieldName, and the typed pairs for Exposure and the optional
// sub-structs. Pointer slots are adopted, not copied: callers must not
// mutate a Consent (etc.) after handing it to a delta.
type FieldDelta struct {
	Field Field `json:"field"`

	Old int64 `json:"old,omitempty"`
	New int64 `json:"new,omitempty"`

	OldName string `json:"old_name,omitempty"`
	NewName string `json:"new_name,omitempty"`

	OldExposure []ExposureFact `json:"old_exposure,omitempty"`
	NewExposure []ExposureFact `json:"new_exposure,omitempty"`

	OldConsent *Consent `json:"old_consent,omitempty"`
	NewConsent *Consent `json:"new_consent,omitempty"`

	OldExigency *Exigency `json:"old_exigency,omitempty"`
	NewExigency *Exigency `json:"new_exigency,omitempty"`

	OldTech *SpecializedTech `json:"old_tech,omitempty"`
	NewTech *SpecializedTech `json:"new_tech,omitempty"`

	OldWorkplace *WorkplaceSearch `json:"old_workplace,omitempty"`
	NewWorkplace *WorkplaceSearch `json:"new_workplace,omitempty"`
}

// ActionDelta is an ordered sequence of field mutations — one event in
// an acquisition's life. Apply plays the mutations forward in order;
// Unapply plays them backward, restoring every field's old value, so
// apply-then-unapply is the identity on any Action the old values came
// from.
type ActionDelta struct {
	Fields []FieldDelta `json:"fields"`
}

// Len reports the number of field mutations the delta carries.
func (d *ActionDelta) Len() int { return len(d.Fields) }

// SetName records a Name change.
func (d *ActionDelta) SetName(old, new string) *ActionDelta {
	d.Fields = append(d.Fields, FieldDelta{Field: FieldName, OldName: old, NewName: new})
	return d
}

// SetActor records an Actor change.
func (d *ActionDelta) SetActor(old, new Actor) *ActionDelta {
	d.Fields = append(d.Fields, FieldDelta{Field: FieldActor, Old: int64(old), New: int64(new)})
	return d
}

// SetTiming records a Timing change.
func (d *ActionDelta) SetTiming(old, new Timing) *ActionDelta {
	d.Fields = append(d.Fields, FieldDelta{Field: FieldTiming, Old: int64(old), New: int64(new)})
	return d
}

// SetData records a DataClass change — the scope-creep event, e.g. a
// header sniffer escalating into payload capture.
func (d *ActionDelta) SetData(old, new DataClass) *ActionDelta {
	d.Fields = append(d.Fields, FieldDelta{Field: FieldData, Old: int64(old), New: int64(new)})
	return d
}

// SetSource records a Source change.
func (d *ActionDelta) SetSource(old, new Source) *ActionDelta {
	d.Fields = append(d.Fields, FieldDelta{Field: FieldSource, Old: int64(old), New: int64(new)})
	return d
}

// SetProviderRole records a ProviderRole change.
func (d *ActionDelta) SetProviderRole(old, new ProviderRole) *ActionDelta {
	d.Fields = append(d.Fields, FieldDelta{Field: FieldProviderRole, Old: int64(old), New: int64(new)})
	return d
}

// SetFlag records a boolean-field change; f must be one of the flag
// fields (FieldEncrypted, FieldPlainView, FieldLawfulVantage,
// FieldProbationSearch, FieldProviderPublic, FieldInterceptsThirdParty,
// FieldSearchBeyondAuthority).
func (d *ActionDelta) SetFlag(f Field, old, new bool) *ActionDelta {
	d.Fields = append(d.Fields, FieldDelta{Field: f, Old: flagValue(old), New: flagValue(new)})
	return d
}

// SetExposure records a replacement of the Exposure sequence.
func (d *ActionDelta) SetExposure(old, new []ExposureFact) *ActionDelta {
	d.Fields = append(d.Fields, FieldDelta{Field: FieldExposure, OldExposure: old, NewExposure: new})
	return d
}

// SetConsent records a replacement of the Consent sub-struct (nil adds
// or removes it) — e.g. the consent-revocation event.
func (d *ActionDelta) SetConsent(old, new *Consent) *ActionDelta {
	d.Fields = append(d.Fields, FieldDelta{Field: FieldConsent, OldConsent: old, NewConsent: new})
	return d
}

// SetExigency records a replacement of the Exigency sub-struct — e.g.
// an emergency authorization lapsing to nil.
func (d *ActionDelta) SetExigency(old, new *Exigency) *ActionDelta {
	d.Fields = append(d.Fields, FieldDelta{Field: FieldExigency, OldExigency: old, NewExigency: new})
	return d
}

// SetTech records a replacement of the SpecializedTech sub-struct.
func (d *ActionDelta) SetTech(old, new *SpecializedTech) *ActionDelta {
	d.Fields = append(d.Fields, FieldDelta{Field: FieldTech, OldTech: old, NewTech: new})
	return d
}

// SetWorkplace records a replacement of the WorkplaceSearch sub-struct.
func (d *ActionDelta) SetWorkplace(old, new *WorkplaceSearch) *ActionDelta {
	d.Fields = append(d.Fields, FieldDelta{Field: FieldWorkplace, OldWorkplace: old, NewWorkplace: new})
	return d
}

// Diff returns the delta that transforms old into new, one FieldDelta
// per differing field in declaration order. Sub-structs are compared by
// value; a difference records the new pointer (adopted, not copied).
// Applying the result to old yields new, and un-applying it from new
// restores old, byte for byte.
func Diff(old, new *Action) ActionDelta {
	var d ActionDelta
	if old.Name != new.Name {
		d.SetName(old.Name, new.Name)
	}
	if old.Actor != new.Actor {
		d.SetActor(old.Actor, new.Actor)
	}
	if old.Timing != new.Timing {
		d.SetTiming(old.Timing, new.Timing)
	}
	if old.Data != new.Data {
		d.SetData(old.Data, new.Data)
	}
	if old.Source != new.Source {
		d.SetSource(old.Source, new.Source)
	}
	if old.Encrypted != new.Encrypted {
		d.SetFlag(FieldEncrypted, old.Encrypted, new.Encrypted)
	}
	if !slices.Equal(old.Exposure, new.Exposure) {
		d.SetExposure(old.Exposure, new.Exposure)
	}
	if (old.Consent == nil) != (new.Consent == nil) ||
		(old.Consent != nil && *old.Consent != *new.Consent) {
		d.SetConsent(old.Consent, new.Consent)
	}
	if (old.Exigency == nil) != (new.Exigency == nil) ||
		(old.Exigency != nil && *old.Exigency != *new.Exigency) {
		d.SetExigency(old.Exigency, new.Exigency)
	}
	if old.PlainView != new.PlainView {
		d.SetFlag(FieldPlainView, old.PlainView, new.PlainView)
	}
	if old.LawfulVantage != new.LawfulVantage {
		d.SetFlag(FieldLawfulVantage, old.LawfulVantage, new.LawfulVantage)
	}
	if old.ProbationSearch != new.ProbationSearch {
		d.SetFlag(FieldProbationSearch, old.ProbationSearch, new.ProbationSearch)
	}
	if (old.Tech == nil) != (new.Tech == nil) ||
		(old.Tech != nil && *old.Tech != *new.Tech) {
		d.SetTech(old.Tech, new.Tech)
	}
	if (old.Workplace == nil) != (new.Workplace == nil) ||
		(old.Workplace != nil && *old.Workplace != *new.Workplace) {
		d.SetWorkplace(old.Workplace, new.Workplace)
	}
	if old.ProviderRole != new.ProviderRole {
		d.SetProviderRole(old.ProviderRole, new.ProviderRole)
	}
	if old.ProviderPublic != new.ProviderPublic {
		d.SetFlag(FieldProviderPublic, old.ProviderPublic, new.ProviderPublic)
	}
	if old.InterceptsThirdParty != new.InterceptsThirdParty {
		d.SetFlag(FieldInterceptsThirdParty, old.InterceptsThirdParty, new.InterceptsThirdParty)
	}
	if old.SearchBeyondAuthority != new.SearchBeyondAuthority {
		d.SetFlag(FieldSearchBeyondAuthority, old.SearchBeyondAuthority, new.SearchBeyondAuthority)
	}
	return d
}

// apply sets one side of the mutation on a: the new value when fwd,
// the old value otherwise. Mutations naming an unknown field are
// ignored (Apply and mask agree on that,
// which keeps EvaluateDelta equivalent to Evaluate on the rebuilt
// action even for malformed deltas).
func (fd *FieldDelta) apply(a *Action, fwd bool) {
	switch fd.Field {
	case FieldName:
		if fwd {
			a.Name = fd.NewName
		} else {
			a.Name = fd.OldName
		}
	case FieldActor:
		a.Actor = Actor(fd.side(fwd))
	case FieldTiming:
		a.Timing = Timing(fd.side(fwd))
	case FieldData:
		a.Data = DataClass(fd.side(fwd))
	case FieldSource:
		a.Source = Source(fd.side(fwd))
	case FieldEncrypted:
		a.Encrypted = fd.side(fwd) != 0
	case FieldExposure:
		if fwd {
			a.Exposure = fd.NewExposure
		} else {
			a.Exposure = fd.OldExposure
		}
	case FieldConsent:
		if fwd {
			a.Consent = fd.NewConsent
		} else {
			a.Consent = fd.OldConsent
		}
	case FieldExigency:
		if fwd {
			a.Exigency = fd.NewExigency
		} else {
			a.Exigency = fd.OldExigency
		}
	case FieldPlainView:
		a.PlainView = fd.side(fwd) != 0
	case FieldLawfulVantage:
		a.LawfulVantage = fd.side(fwd) != 0
	case FieldProbationSearch:
		a.ProbationSearch = fd.side(fwd) != 0
	case FieldTech:
		if fwd {
			a.Tech = fd.NewTech
		} else {
			a.Tech = fd.OldTech
		}
	case FieldWorkplace:
		if fwd {
			a.Workplace = fd.NewWorkplace
		} else {
			a.Workplace = fd.OldWorkplace
		}
	case FieldProviderRole:
		a.ProviderRole = ProviderRole(fd.side(fwd))
	case FieldProviderPublic:
		a.ProviderPublic = fd.side(fwd) != 0
	case FieldInterceptsThirdParty:
		a.InterceptsThirdParty = fd.side(fwd) != 0
	case FieldSearchBeyondAuthority:
		a.SearchBeyondAuthority = fd.side(fwd) != 0
	}
}

// side selects the scalar slot for the direction.
func (fd *FieldDelta) side(fwd bool) int64 {
	if fwd {
		return fd.New
	}
	return fd.Old
}

// Apply plays the delta's mutations forward, in order, onto a.
func (d *ActionDelta) Apply(a *Action) {
	for i := range d.Fields {
		d.Fields[i].apply(a, true)
	}
}

// Unapply plays the mutations backward, restoring each field's old
// value in reverse order — the exact inverse of Apply, so
// d.Apply(a); d.Unapply(a) leaves a byte-identical to its start
// whenever the delta's old values describe a (as Diff's always do).
func (d *ActionDelta) Unapply(a *Action) {
	for i := len(d.Fields) - 1; i >= 0; i-- {
		d.Fields[i].apply(a, false)
	}
}

// mask returns the set of fields the delta touches. Unknown fields
// contribute nothing, matching Apply's behavior of ignoring them.
func (d *ActionDelta) mask() FieldMask {
	var m FieldMask
	for i := range d.Fields {
		if f := d.Fields[i].Field; f < numFields {
			m |= 1 << f
		}
	}
	return m
}

// Enum cardinalities for delta range checks, derived from the name
// catalogs exactly like the dispatch dimensions in dispatch.go.
var (
	numExposures     = len(exposureNames)
	numConsentScopes = len(consentScopeNames)
	numExigencies    = len(exigencyNames)
	numProviderRoles = len(providerRoleNames)
)

// changedInRange reports whether every new value the delta introduces
// would pass Action.Validate. The short-circuit path in EvaluateDelta
// requires it: a delta writing an out-of-range value must take the full
// path so the rebuilt action fails validation exactly as Evaluate
// would. All enums are dense from 1, so the checks mirror the name-map
// lookups Validate performs.
func (d *ActionDelta) changedInRange() bool {
	for i := range d.Fields {
		fd := &d.Fields[i]
		switch fd.Field {
		case FieldActor:
			if fd.New < 1 || fd.New > int64(numActors) {
				return false
			}
		case FieldTiming:
			if fd.New < 1 || fd.New > int64(numTimings) {
				return false
			}
		case FieldData:
			if fd.New < 1 || fd.New > int64(numData) {
				return false
			}
		case FieldSource:
			if fd.New < 1 || fd.New > int64(numSources) {
				return false
			}
		case FieldProviderRole:
			// Validate accepts the zero ProviderRole ("not set").
			if fd.New < 0 || fd.New > int64(numProviderRoles) {
				return false
			}
		case FieldExposure:
			for _, e := range fd.NewExposure {
				if e < 1 || int(e) > numExposures {
					return false
				}
			}
		case FieldConsent:
			if c := fd.NewConsent; c != nil && (c.Scope < 1 || int(c.Scope) > numConsentScopes) {
				return false
			}
		case FieldExigency:
			if x := fd.NewExigency; x != nil && (x.Kind < 1 || int(x.Kind) > numExigencies) {
				return false
			}
		}
	}
	return true
}

// flagValue encodes a boolean field value as FieldDelta stores it.
func flagValue(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// AppendEncoding appends the delta's canonical text encoding to buf and
// returns the extended slice — "delta{field:old>new;...}" with the
// same value grammar the action fingerprint uses, so audit trails
// (custody logs, monitor transcripts) record mutations compactly
// without allocating per event.
func (d *ActionDelta) AppendEncoding(buf []byte) []byte {
	buf = append(buf, "delta{"...)
	for i := range d.Fields {
		if i > 0 {
			buf = append(buf, ';')
		}
		fd := &d.Fields[i]
		buf = append(buf, fd.Field.String()...)
		buf = append(buf, ':')
		buf = fd.appendSide(buf, false)
		buf = append(buf, '>')
		buf = fd.appendSide(buf, true)
	}
	return append(buf, '}')
}

// Encoding returns the canonical text encoding as a string.
func (d *ActionDelta) Encoding() string {
	var buf [128]byte
	return string(d.AppendEncoding(buf[:0]))
}

// appendSide appends one side's value in the fingerprint grammar.
func (fd *FieldDelta) appendSide(buf []byte, fwd bool) []byte {
	switch fd.Field {
	case FieldName:
		if fwd {
			return append(buf, fd.NewName...)
		}
		return append(buf, fd.OldName...)
	case FieldExposure:
		exp := fd.OldExposure
		if fwd {
			exp = fd.NewExposure
		}
		buf = append(buf, '[')
		for _, e := range exp {
			buf = fpInt(buf, int(e))
		}
		return append(buf, ']')
	case FieldConsent:
		c := fd.OldConsent
		if fwd {
			c = fd.NewConsent
		}
		if c == nil {
			return append(buf, '-')
		}
		buf = append(buf, '{')
		buf = fpInt(buf, int(c.Scope))
		buf = fpBool(buf, c.Revoked)
		buf = fpBool(buf, c.ExceedsScope)
		buf = fpBool(buf, c.AllPartiesRequired)
		return append(buf, '}')
	case FieldExigency:
		x := fd.OldExigency
		if fwd {
			x = fd.NewExigency
		}
		if x == nil {
			return append(buf, '-')
		}
		buf = append(buf, '{')
		buf = fpInt(buf, int(x.Kind))
		buf = fpBool(buf, x.Approved)
		return append(buf, '}')
	case FieldTech:
		t := fd.OldTech
		if fwd {
			t = fd.NewTech
		}
		if t == nil {
			return append(buf, '-')
		}
		buf = append(buf, '{')
		buf = fpBool(buf, t.GeneralPublicUse)
		buf = fpBool(buf, t.RevealsHomeInterior)
		return append(buf, '}')
	case FieldWorkplace:
		w := fd.OldWorkplace
		if fwd {
			w = fd.NewWorkplace
		}
		if w == nil {
			return append(buf, '-')
		}
		buf = append(buf, '{')
		buf = fpBool(buf, w.GovernmentEmployer)
		buf = fpBool(buf, w.WorkRelated)
		buf = fpBool(buf, w.JustifiedAtInception)
		buf = fpBool(buf, w.PermissibleScope)
		return append(buf, '}')
	default:
		return strconv.AppendInt(buf, fd.side(fwd), 10)
	}
}
