package legal

// PrivacyFinding is the outcome of the reasonable-expectation-of-privacy
// (REP) analysis under Katz: whether the target of an acquisition retains a
// reasonable expectation of privacy in the data, and why.
type PrivacyFinding struct {
	// Reasonable reports whether the target retains a reasonable
	// expectation of privacy.
	Reasonable bool
	// Reasons is the rationale chain supporting the finding.
	Reasons []string
	// Citations are the authorities supporting the finding.
	Citations []Citation
}

// analyzePrivacy applies the Katz two-prong test as the paper states it
// (§ II-C): a person has REP if (1) they actually expect privacy and
// (2) society recognizes that expectation as reasonable. The paper's factor
// list then identifies situations in which the expectation is absent or
// lost. The finding is written into f, reusing its slices' capacity.
func analyzePrivacy(a *Action, f *PrivacyFinding) {
	*f = PrivacyFinding{Reasonable: true, Reasons: f.Reasons[:0], Citations: f.Citations[:0]}
	f.cite("Katz")

	// Public information never carries REP.
	if a.Data == DataPublic || a.Source == SourcePublicService {
		f.no("information in public places or knowingly exposed carries no reasonable expectation of privacy")
		f.cite("Gorshkov")
	}

	// Explicit exposure facts from the paper's § II-C-2 list.
	for _, e := range a.Exposure {
		switch e {
		case ExposureKnowinglyPublic:
			f.no("target knowingly exposed the information to another person or the public")
			f.cite("Gorshkov")
		case ExposureSharedFolder:
			f.no("sharing a folder or files with others forfeits the expectation of privacy in them, even on a private computer")
			f.cite("King")
		case ExposureDelivered:
			f.no("the sender's expectation of privacy terminates upon delivery")
		case ExposureRelinquished:
			f.no("control of the information was relinquished to a third party")
		case ExposurePolicyEliminatesREP:
			f.no("an applicable policy eliminates the user's expectation of privacy")
		case ExposurePublicPlace:
			f.no("information left in a public place carries no expectation of privacy")
		case ExposureCredentialsObtained:
			f.no("credentials lawfully obtained from the target defeat the expectation of privacy in the account they open")
		case ExposureAbandoned:
			f.no("abandoned property carries no expectation of privacy")
		}
	}

	// Non-content addressing information voluntarily conveyed to carriers
	// has no constitutional REP (Smith v. Maryland; Forrester), though
	// statutes may still protect it.
	if a.Data == DataAddressing || a.Data == DataBasicSubscriber || a.Data == DataTransactionalRecords {
		f.no("addressing information and subscriber records are knowingly conveyed to the carrier and carry no constitutional expectation of privacy (statutes may still apply)")
		f.cite("Smith")
		f.cite("Forrester")
	}

	// The Kyllo rule cuts the other way: specialized technology revealing
	// the interior of a home creates a search even absent physical
	// intrusion.
	if a.Tech.TriggersKyllo() {
		f.Reasonable = true
		f.Reasons = append(f.Reasons,
			"sense-enhancing technology not in general public use revealing details of the home interior constitutes a search (Kyllo)")
		f.cite("Kyllo")
	}

	// Device contents are a closed container with presumptive REP.
	if f.Reasonable && a.Data == DataDeviceContents {
		f.Reasons = append(f.Reasons,
			"electronic storage devices are analogous to closed containers; their contents carry a reasonable expectation of privacy")
	}
	if f.Reasonable && a.Data == DataContent {
		f.Reasons = append(f.Reasons,
			"the contents of private communications carry a reasonable expectation of privacy")
	}
}

func (f *PrivacyFinding) no(reason string) {
	f.Reasonable = false
	f.Reasons = append(f.Reasons, reason)
}

func (f *PrivacyFinding) cite(id string) {
	c := Cite(id)
	for _, have := range f.Citations {
		if have.ID == c.ID {
			return
		}
	}
	f.Citations = append(f.Citations, c)
}
