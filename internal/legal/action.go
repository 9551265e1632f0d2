package legal

import (
	"fmt"
	"strconv"
)

// Actor classifies who performs an acquisition. The Fourth Amendment binds
// the government and those acting as its agents or at its instigation; a
// purely private search is outside it (paper § III-B-i).
type Actor int

// Actor classes.
const (
	// ActorGovernment is a law-enforcement officer or other government
	// agent.
	ActorGovernment Actor = iota + 1
	// ActorGovernmentDirected is a private party acting as an agent of,
	// or instigated by, the government; treated as the government.
	ActorGovernmentDirected
	// ActorPrivate is a private party acting on their own behalf
	// (a repair technician, a curious administrator).
	ActorPrivate
	// ActorProvider is a communications or network service provider
	// monitoring or operating its own system.
	ActorProvider
)

var actorNames = map[Actor]string{
	ActorGovernment:         "government",
	ActorGovernmentDirected: "government-directed private party",
	ActorPrivate:            "private party",
	ActorProvider:           "service provider",
}

// String returns the human-readable actor class.
func (a Actor) String() string {
	if s, ok := actorNames[a]; ok {
		return s
	}
	return fmt.Sprintf("Actor(%d)", int(a))
}

// Governmental reports whether the actor is bound by the Fourth Amendment:
// the government itself, or a private party directed by it.
func (a Actor) Governmental() bool {
	return a == ActorGovernment || a == ActorGovernmentDirected
}

// Timing distinguishes real-time interception from access to stored data.
// The distinction selects between the Wiretap/Pen-Trap statutes (real time)
// and the SCA or Fourth Amendment (stored), per paper § II-B.
type Timing int

// Timing values.
const (
	// TimingRealTime is acquisition contemporaneous with transmission.
	TimingRealTime Timing = iota + 1
	// TimingStored is acquisition of data at rest (on a device, with a
	// provider, or in an account).
	TimingStored
)

var timingNames = map[Timing]string{
	TimingRealTime: "real-time",
	TimingStored:   "stored",
}

// String returns the human-readable timing.
func (t Timing) String() string {
	if s, ok := timingNames[t]; ok {
		return s
	}
	return fmt.Sprintf("Timing(%d)", int(t))
}

// DataClass classifies what is acquired. The statutes turn on the
// content/non-content line: Title III governs contents, the Pen/Trap
// statute governs addressing and other non-content information, and the
// SCA distinguishes stored content, transactional records, and basic
// subscriber information (paper §§ II-B, III-A-3).
type DataClass int

// Data classes.
const (
	// DataContent is the substance of a communication: payload, message
	// body, subject line, the real content of a visited page.
	DataContent DataClass = iota + 1
	// DataAddressing is non-content addressing information: TO/FROM
	// addresses, dialed numbers, IP addresses, ports, packet sizes,
	// link/IP/TCP/UDP headers.
	DataAddressing
	// DataBasicSubscriber is basic subscriber information held by a
	// provider: name, street address, assigned network addresses,
	// session logs (§ 2703(c)(2)).
	DataBasicSubscriber
	// DataTransactionalRecords are non-content records about a customer
	// held by a provider beyond basic subscriber information.
	DataTransactionalRecords
	// DataPublic is information knowingly exposed to the public: a
	// public website, a public chat room, names and shared-file lists
	// visible in P2P software.
	DataPublic
	// DataDeviceContents is information stored inside a computer or
	// electronic storage device (the "closed container").
	DataDeviceContents
)

var dataClassNames = map[DataClass]string{
	DataContent:              "communication content",
	DataAddressing:           "addressing/non-content",
	DataBasicSubscriber:      "basic subscriber information",
	DataTransactionalRecords: "transactional records",
	DataPublic:               "public information",
	DataDeviceContents:       "device contents",
}

// String returns the human-readable data class.
func (d DataClass) String() string {
	if s, ok := dataClassNames[d]; ok {
		return s
	}
	return fmt.Sprintf("DataClass(%d)", int(d))
}

// Source identifies where the data is acquired from; the source determines
// which regime applies and whose privacy interest is at stake.
type Source int

// Sources of acquisition.
const (
	// SourceOwnNetwork is the actor's own network infrastructure (a
	// campus IT department logging its own cables and devices).
	SourceOwnNetwork Source = iota + 1
	// SourceWirelessBroadcast is radio traffic receivable outside the
	// premises (the WarDriving / Street View scenes).
	SourceWirelessBroadcast
	// SourceThirdPartyNetwork is a public network or ISP infrastructure
	// the actor does not own (a tap at an ISP, a Tor relay).
	SourceThirdPartyNetwork
	// SourceProviderStored is data held by a service provider (email,
	// account records, a hidden server operating as an ISP).
	SourceProviderStored
	// SourcePublicService is a service open to anyone: public websites,
	// public chat rooms, P2P overlays joined as an ordinary peer.
	SourcePublicService
	// SourceSeizedDevice is a device lawfully in the actor's custody
	// (a seized hard drive, a legally obtained database).
	SourceSeizedDevice
	// SourceRemoteAccount is a remote account or computer accessed with
	// credentials (scene 20 of Table 1).
	SourceRemoteAccount
	// SourceVictimSystem is a victim's own computer or network,
	// monitored with the victim's cooperation.
	SourceVictimSystem
	// SourceTargetDevice is the suspect's own computer or device, in the
	// suspect's possession.
	SourceTargetDevice
)

var sourceNames = map[Source]string{
	SourceOwnNetwork:        "own network",
	SourceWirelessBroadcast: "wireless broadcast",
	SourceThirdPartyNetwork: "third-party network",
	SourceProviderStored:    "provider-stored",
	SourcePublicService:     "public service",
	SourceSeizedDevice:      "seized device",
	SourceRemoteAccount:     "remote account",
	SourceVictimSystem:      "victim system",
	SourceTargetDevice:      "target device",
}

// String returns the human-readable source.
func (s Source) String() string {
	if n, ok := sourceNames[s]; ok {
		return n
	}
	return fmt.Sprintf("Source(%d)", int(s))
}

// ExposureFact is a doctrinal fact that bears on whether the target retains
// a reasonable expectation of privacy (paper § II-C-2).
type ExposureFact int

// Exposure facts recognized by the REP analysis.
const (
	// ExposureKnowinglyPublic means the target knowingly exposed the
	// information to the public or to another person.
	ExposureKnowinglyPublic ExposureFact = iota + 1
	// ExposureSharedFolder means the target shared the data with others
	// (a shared folder, P2P sharing), even from a private machine.
	ExposureSharedFolder
	// ExposureDelivered means the communication has been delivered;
	// the sender's expectation "terminates upon delivery".
	ExposureDelivered
	// ExposureRelinquished means the target relinquished control of the
	// information to a third party.
	ExposureRelinquished
	// ExposurePolicyEliminatesREP means an applicable policy or terms of
	// service eliminates the user's expectation of privacy (scene 2).
	ExposurePolicyEliminatesREP
	// ExposurePublicPlace means the information was left in a public
	// place (a file on a public library computer).
	ExposurePublicPlace
	// ExposureCredentialsObtained means the actor lawfully obtained the
	// target's credentials from the target (scene 20).
	ExposureCredentialsObtained
	// ExposureAbandoned means the target abandoned the property or data.
	ExposureAbandoned
)

var exposureNames = map[ExposureFact]string{
	ExposureKnowinglyPublic:     "knowingly exposed to the public",
	ExposureSharedFolder:        "shared with others",
	ExposureDelivered:           "delivered to recipient",
	ExposureRelinquished:        "control relinquished to a third party",
	ExposurePolicyEliminatesREP: "policy eliminates expectation of privacy",
	ExposurePublicPlace:         "left in a public place",
	ExposureCredentialsObtained: "credentials lawfully obtained",
	ExposureAbandoned:           "abandoned",
}

// String returns the human-readable exposure fact.
func (e ExposureFact) String() string {
	if s, ok := exposureNames[e]; ok {
		return s
	}
	return fmt.Sprintf("ExposureFact(%d)", int(e))
}

// ConsentScope identifies who consented and what the consent reaches
// (paper § III-B-c).
type ConsentScope int

// Consent scopes.
const (
	// ConsentOwnData is consent by the person whose data is searched.
	ConsentOwnData ConsentScope = iota + 1
	// ConsentCoUserSharedSpace is consent by a co-user of shared
	// equipment, reaching only the space the co-user controls.
	ConsentCoUserSharedSpace
	// ConsentSpouse is consent by a spouse over the couple's property.
	ConsentSpouse
	// ConsentParentMinor is parental consent over a minor child's
	// computer.
	ConsentParentMinor
	// ConsentEmployerPrivate is consent by a private-sector employer
	// over workplace systems.
	ConsentEmployerPrivate
	// ConsentProviderToS is provider authority established by terms of
	// service over accounts on its system.
	ConsentProviderToS
	// ConsentCommunicationParty is consent by one party to a
	// communication to its interception (§ 2511(2)(c)-(d)).
	ConsentCommunicationParty
	// ConsentVictimTrespasser is a computer-attack victim's
	// authorization to monitor a trespasser on the victim's system
	// (§ 2511(2)(i)).
	ConsentVictimTrespasser
)

var consentScopeNames = map[ConsentScope]string{
	ConsentOwnData:            "consent of the data owner",
	ConsentCoUserSharedSpace:  "co-user consent over shared space",
	ConsentSpouse:             "spousal consent",
	ConsentParentMinor:        "parental consent (minor child)",
	ConsentEmployerPrivate:    "private employer consent",
	ConsentProviderToS:        "provider terms-of-service authority",
	ConsentCommunicationParty: "consent of a party to the communication",
	ConsentVictimTrespasser:   "victim consent to monitor trespasser",
}

// String returns the human-readable consent scope.
func (c ConsentScope) String() string {
	if s, ok := consentScopeNames[c]; ok {
		return s
	}
	return fmt.Sprintf("ConsentScope(%d)", int(c))
}

// Consent describes a consent relied upon for a warrantless acquisition.
type Consent struct {
	// Scope identifies who consented and what the consent reaches.
	Scope ConsentScope
	// Revoked marks consent withdrawn before or during the search;
	// a search must cease upon revocation.
	Revoked bool
	// ExceedsScope marks an acquisition that goes beyond what the
	// consenting party controlled or permitted — for example, using a
	// victim's consent to reach into the attacker's own computer
	// (scene 16).
	ExceedsScope bool
	// AllPartiesRequired models states whose law requires all parties
	// to a communication to consent; if set and Scope is
	// ConsentCommunicationParty, single-party consent is insufficient.
	AllPartiesRequired bool
}

// Effective reports whether the consent currently authorizes the
// acquisition it accompanies.
func (c *Consent) Effective() bool {
	if c == nil {
		return false
	}
	if c.Revoked || c.ExceedsScope {
		return false
	}
	if c.Scope == ConsentCommunicationParty && c.AllPartiesRequired {
		return false
	}
	return true
}

// ExigencyKind enumerates the exigent circumstances recognized by the paper
// (§ III-B-b) and the emergency pen/trap provision (§ 3125).
type ExigencyKind int

// Exigency kinds.
const (
	// ExigencyEvidenceDestruction covers imminent destruction of
	// evidence (a "destroy command", dying batteries, auto-wipe).
	ExigencyEvidenceDestruction ExigencyKind = iota + 1
	// ExigencyDanger covers immediate danger to police or the public.
	ExigencyDanger
	// ExigencyHotPursuit covers hot pursuit of a suspect.
	ExigencyHotPursuit
	// ExigencyEscape covers a suspect likely to escape before a warrant
	// can issue.
	ExigencyEscape
	// ExigencyEmergencyPenTrap covers the § 3125 emergency pen/trap
	// situations (danger of death, organized crime, national security,
	// ongoing attack on a protected computer).
	ExigencyEmergencyPenTrap
)

var exigencyNames = map[ExigencyKind]string{
	ExigencyEvidenceDestruction: "imminent destruction of evidence",
	ExigencyDanger:              "immediate danger",
	ExigencyHotPursuit:          "hot pursuit",
	ExigencyEscape:              "risk of escape",
	ExigencyEmergencyPenTrap:    "emergency pen/trap (§ 3125)",
}

// String returns the human-readable exigency kind.
func (e ExigencyKind) String() string {
	if s, ok := exigencyNames[e]; ok {
		return s
	}
	return fmt.Sprintf("ExigencyKind(%d)", int(e))
}

// Exigency describes an exigent circumstance relied upon.
type Exigency struct {
	// Kind is the category of exigency.
	Kind ExigencyKind
	// Approved records the high-level approval an emergency pen/trap
	// requires (at least Deputy Assistant Attorney General, § 3125(a)).
	Approved bool
}

// Effective reports whether the exigency excuses prior process. An
// emergency pen/trap additionally requires high-level approval.
func (e *Exigency) Effective() bool {
	if e == nil {
		return false
	}
	if e.Kind == ExigencyEmergencyPenTrap {
		return e.Approved
	}
	return true
}

// SpecializedTech describes use of sense-enhancing technology, for the
// Kyllo rule: technology not in general public use that reveals details of
// the interior of a home constitutes a search (paper § III-B-a).
type SpecializedTech struct {
	// GeneralPublicUse reports whether the technology is in general
	// public use.
	GeneralPublicUse bool
	// RevealsHomeInterior reports whether the technology discloses
	// information about the interior of a home.
	RevealsHomeInterior bool
}

// TriggersKyllo reports whether the technology use constitutes a
// presumptively unreasonable warrantless search under Kyllo.
func (t *SpecializedTech) TriggersKyllo() bool {
	return t != nil && !t.GeneralPublicUse && t.RevealsHomeInterior
}

// WorkplaceSearch describes a government employer's administrative search
// of an employee's workspace (paper § III-B-c(iv); O'Connor v. Ortega).
// Such a search is lawful without a warrant only when it is work-related,
// justified at its inception, and permissible in scope. Private-sector
// employer searches are modeled through Consent with
// ConsentEmployerPrivate instead.
type WorkplaceSearch struct {
	// GovernmentEmployer marks the employer as a government entity;
	// the O'Connor framework applies only then.
	GovernmentEmployer bool
	// WorkRelated, JustifiedAtInception, and PermissibleScope are the
	// three O'Connor conditions.
	WorkRelated          bool
	JustifiedAtInception bool
	PermissibleScope     bool
}

// Lawful reports whether the workplace search satisfies O'Connor.
func (w *WorkplaceSearch) Lawful() bool {
	return w != nil && w.GovernmentEmployer &&
		w.WorkRelated && w.JustifiedAtInception && w.PermissibleScope
}

// ProviderRole classifies a provider with respect to a stored
// communication, per the SCA (paper § III-A-3 and the Alice/Bob example).
type ProviderRole int

// Provider roles under the SCA.
const (
	// ProviderNone means no provider is involved or the provider is
	// neither an ECS nor an RCS with respect to the data; the Fourth
	// Amendment governs instead of the SCA.
	ProviderNone ProviderRole = iota + 1
	// ProviderECS is a provider of electronic communication service
	// with respect to the communication (in transit or unretrieved).
	ProviderECS
	// ProviderRCS is a provider of remote computing service to the
	// public with respect to the communication (retrieved and left in
	// storage with a public provider).
	ProviderRCS
)

var providerRoleNames = map[ProviderRole]string{
	ProviderNone: "neither ECS nor RCS",
	ProviderECS:  "electronic communication service",
	ProviderRCS:  "remote computing service",
}

// String returns the human-readable provider role.
func (p ProviderRole) String() string {
	if s, ok := providerRoleNames[p]; ok {
		return s
	}
	return fmt.Sprintf("ProviderRole(%d)", int(p))
}

// Action is a structured description of one investigative acquisition step,
// rich enough to encode every scene in the paper's Table 1. Evaluate an
// Action with Engine.Evaluate to learn what process it requires.
type Action struct {
	// Name is a short human-readable label for reports.
	Name string
	// Actor is who performs the acquisition.
	Actor Actor
	// Timing distinguishes real-time interception from stored access.
	Timing Timing
	// Data is the class of information acquired.
	Data DataClass
	// Source is where the information is acquired from.
	Source Source
	// Encrypted reports whether intercepted traffic is encrypted. Per
	// the paper's starred Table-1 judgments, encryption does not change
	// the content/non-content line, but it is recorded in rationales.
	Encrypted bool
	// Exposure lists doctrinal facts eliminating the target's
	// expectation of privacy.
	Exposure []ExposureFact
	// Consent, if non-nil, is a consent relied upon.
	Consent *Consent
	// Exigency, if non-nil, is an exigent circumstance relied upon.
	Exigency *Exigency
	// PlainView marks evidence observed from a lawful vantage point
	// whose incriminating character is immediately apparent.
	PlainView bool
	// LawfulVantage reports whether the actor was lawfully positioned
	// when the observation occurred; plain view requires it.
	LawfulVantage bool
	// ProbationSearch marks a search of a person on probation, parole,
	// or supervised release.
	ProbationSearch bool
	// Tech, if non-nil, describes sense-enhancing technology used.
	Tech *SpecializedTech
	// Workplace, if non-nil, describes a government employer's
	// administrative search of an employee workspace.
	Workplace *WorkplaceSearch
	// ProviderRole classifies the holding provider for stored data.
	ProviderRole ProviderRole
	// ProviderPublic reports whether the provider offers services to
	// the public (the SCA only reaches public RCS providers, and § 2702
	// only restrains public providers).
	ProviderPublic bool
	// InterceptsThirdParty marks real-time acquisition of
	// communications between parties other than the actor (a relay
	// operator reading relayed traffic, scene 13).
	InterceptsThirdParty bool
	// SearchBeyondAuthority marks an examination that exceeds the
	// authority under which the item was obtained — e.g. hash-searching
	// an entire lawfully seized drive for files outside the original
	// authority (scene 18, United States v. Crist).
	SearchBeyondAuthority bool
}

// HasExposure reports whether the action records the given exposure fact.
func (a *Action) HasExposure(f ExposureFact) bool {
	for _, e := range a.Exposure {
		if e == f {
			return true
		}
	}
	return false
}

// Validate checks that the action's enums are within range and that
// inconsistent combinations are absent. It returns nil when the action is
// well-formed.
func (a *Action) Validate() error {
	if a == nil {
		return fmt.Errorf("legal: nil action")
	}
	if _, ok := actorNames[a.Actor]; !ok {
		return fmt.Errorf("legal: action %q: invalid actor %d", a.Name, int(a.Actor))
	}
	if _, ok := timingNames[a.Timing]; !ok {
		return fmt.Errorf("legal: action %q: invalid timing %d", a.Name, int(a.Timing))
	}
	if _, ok := dataClassNames[a.Data]; !ok {
		return fmt.Errorf("legal: action %q: invalid data class %d", a.Name, int(a.Data))
	}
	if _, ok := sourceNames[a.Source]; !ok {
		return fmt.Errorf("legal: action %q: invalid source %d", a.Name, int(a.Source))
	}
	if a.ProviderRole != 0 {
		if _, ok := providerRoleNames[a.ProviderRole]; !ok {
			return fmt.Errorf("legal: action %q: invalid provider role %d", a.Name, int(a.ProviderRole))
		}
	}
	for _, e := range a.Exposure {
		if _, ok := exposureNames[e]; !ok {
			return fmt.Errorf("legal: action %q: invalid exposure fact %d", a.Name, int(e))
		}
	}
	if a.Consent != nil {
		if _, ok := consentScopeNames[a.Consent.Scope]; !ok {
			return fmt.Errorf("legal: action %q: invalid consent scope %d", a.Name, int(a.Consent.Scope))
		}
	}
	if a.Exigency != nil {
		if _, ok := exigencyNames[a.Exigency.Kind]; !ok {
			return fmt.Errorf("legal: action %q: invalid exigency kind %d", a.Name, int(a.Exigency.Kind))
		}
	}
	return nil
}

// Fingerprint returns a canonical, collision-free encoding of every field
// that influences evaluation (which is all of them, including Name, since
// the ruling echoes the action). Two actions with equal fingerprints are
// identical, so the fingerprint is a sound durable key or transcript
// entry for an action (capture.Monitor logs each event with it).
func (a *Action) Fingerprint() string {
	var buf [96]byte
	return string(a.AppendFingerprint(buf[:0]))
}

// fpInt appends v in decimal with a field separator. Enum values are
// almost always a single digit; the general path handles the rest.
func fpInt(buf []byte, v int) []byte {
	if v >= 0 && v < 10 {
		return append(buf, byte('0'+v), '|')
	}
	buf = strconv.AppendInt(buf, int64(v), 10)
	return append(buf, '|')
}

// fpBool appends a bool flag with a field separator.
func fpBool(buf []byte, v bool) []byte {
	if v {
		return append(buf, '1', '|')
	}
	return append(buf, '0', '|')
}

// AppendFingerprint appends the canonical encoding to buf and returns
// the extended slice. Callers that fingerprint a stream of actions
// (capture monitors, evidence lockers) reuse one
// buffer across events instead of allocating a string per call; the
// bytes appended are exactly Fingerprint's.
func (a *Action) AppendFingerprint(buf []byte) []byte {
	buf = fpInt(buf, int(a.Actor))
	buf = fpInt(buf, int(a.Timing))
	buf = fpInt(buf, int(a.Data))
	buf = fpInt(buf, int(a.Source))
	buf = fpBool(buf, a.Encrypted)
	buf = append(buf, '[')
	for _, e := range a.Exposure {
		buf = fpInt(buf, int(e))
	}
	buf = append(buf, ']')
	if c := a.Consent; c != nil {
		buf = append(buf, 'C', '{')
		buf = fpInt(buf, int(c.Scope))
		buf = fpBool(buf, c.Revoked)
		buf = fpBool(buf, c.ExceedsScope)
		buf = fpBool(buf, c.AllPartiesRequired)
		buf = append(buf, '}')
	} else {
		buf = append(buf, 'C', '-')
	}
	if x := a.Exigency; x != nil {
		buf = append(buf, 'X', '{')
		buf = fpInt(buf, int(x.Kind))
		buf = fpBool(buf, x.Approved)
		buf = append(buf, '}')
	} else {
		buf = append(buf, 'X', '-')
	}
	buf = fpBool(buf, a.PlainView)
	buf = fpBool(buf, a.LawfulVantage)
	buf = fpBool(buf, a.ProbationSearch)
	if t := a.Tech; t != nil {
		buf = append(buf, 'T', '{')
		buf = fpBool(buf, t.GeneralPublicUse)
		buf = fpBool(buf, t.RevealsHomeInterior)
		buf = append(buf, '}')
	} else {
		buf = append(buf, 'T', '-')
	}
	if w := a.Workplace; w != nil {
		buf = append(buf, 'W', '{')
		buf = fpBool(buf, w.GovernmentEmployer)
		buf = fpBool(buf, w.WorkRelated)
		buf = fpBool(buf, w.JustifiedAtInception)
		buf = fpBool(buf, w.PermissibleScope)
		buf = append(buf, '}')
	} else {
		buf = append(buf, 'W', '-')
	}
	buf = fpInt(buf, int(a.ProviderRole))
	buf = fpBool(buf, a.ProviderPublic)
	buf = fpBool(buf, a.InterceptsThirdParty)
	buf = fpBool(buf, a.SearchBeyondAuthority)
	buf = append(buf, a.Name...)
	return buf
}
