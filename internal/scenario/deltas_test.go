package scenario

import (
	"reflect"
	"testing"

	"lawgate/internal/legal"
)

// TestDeltaChainsMatchFullEvaluation is the scenario-level equivalence
// check: every step of every scene's what-if chain, ruled incrementally
// through EvaluateDelta, must equal a full evaluation of the mutated
// action on a fresh engine.
func TestDeltaChainsMatchFullEvaluation(t *testing.T) {
	engine := legal.NewEngine()
	ref := legal.NewEngine()
	chains, err := DeltaChains(engine)
	if err != nil {
		t.Fatal(err)
	}
	if len(chains) != 20 {
		t.Fatalf("chains = %d, want 20", len(chains))
	}
	var steps, changed int
	for _, ch := range chains {
		wantBase, err := ref.Evaluate(ch.Scene.Action)
		if err != nil {
			t.Fatalf("scene %d: %v", ch.Scene.Number, err)
		}
		if !reflect.DeepEqual(ch.Base, wantBase) {
			t.Errorf("scene %d base diverges:\n got %+v\nwant %+v",
				ch.Scene.Number, ch.Base, wantBase)
		}
		for _, ev := range ch.Events {
			steps++
			if ev.Changed {
				changed++
			}
			want, err := ref.Evaluate(ev.Ruling.Action)
			if err != nil {
				t.Fatalf("scene %d %s: %v", ch.Scene.Number, ev.Label, err)
			}
			if !reflect.DeepEqual(ev.Ruling, want) {
				t.Errorf("scene %d %s diverges:\n got %+v\nwant %+v",
					ch.Scene.Number, ev.Label, ev.Ruling, want)
			}
			if ev.Delta == "" {
				t.Errorf("scene %d %s: empty delta encoding", ch.Scene.Number, ev.Label)
			}
		}
	}
	if steps == 0 {
		t.Fatal("no chain steps derived")
	}
	// The chains must exercise both quiet steps and ruling changes, or
	// the what-if stream proves nothing.
	if changed == 0 || changed == steps {
		t.Errorf("changed = %d of %d steps; want a mix", changed, steps)
	}
	t.Logf("%d scenes, %d chain steps, %d ruling changes", len(chains), steps, changed)
}

// TestDeltaChainsKnownTransitions pins two doctrinally important
// chains: the pen-register scene escalating to content must cross from
// the pen/trap regime into the Wiretap Act, and the party-consent
// interception must lose its free pass when consent is revoked.
func TestDeltaChainsKnownTransitions(t *testing.T) {
	engine := legal.NewEngine()
	chains, err := DeltaChains(engine)
	if err != nil {
		t.Fatal(err)
	}
	byNumber := make(map[int]SceneChain, len(chains))
	for _, ch := range chains {
		byNumber[ch.Scene.Number] = ch
	}

	find := func(ch SceneChain, label string) *SceneEvent {
		for i := range ch.Events {
			if ch.Events[i].Label == label {
				return &ch.Events[i]
			}
		}
		return nil
	}

	// Scene 7: officer logging packet headers at an ISP (realtime
	// addressing, pen/trap order). Escalating the same tap to content
	// moves it under the Wiretap Act.
	ch7 := byNumber[7]
	if ch7.Base.Regime != legal.RegimePenTrap {
		t.Fatalf("scene 7 base regime = %v, want pen/trap", ch7.Base.Regime)
	}
	esc := find(ch7, "escalate-to-content")
	if esc == nil {
		t.Fatal("scene 7 chain lacks escalate-to-content")
	}
	if !esc.Changed || esc.Ruling.Regime != legal.RegimeWiretap {
		t.Errorf("scene 7 escalation: changed=%v regime=%v, want changed into Wiretap Act",
			esc.Changed, esc.Ruling.Regime)
	}

	// Consent revocation must matter somewhere in the table. At
	// minimum, every revoke-consent step across the table must never
	// lower the required process.
	var sawRevoke bool
	for _, ch := range chains {
		rev := find(ch, "revoke-consent")
		if rev == nil {
			continue
		}
		sawRevoke = true
		// Find the ruling immediately before the revocation.
		prev := ch.Base
		for _, ev := range ch.Events {
			if ev.Label == "revoke-consent" {
				break
			}
			prev = ev.Ruling
		}
		if rev.Ruling.Required < prev.Required {
			t.Errorf("scene %d: revoking consent lowered required process %v -> %v",
				ch.Scene.Number, prev.Required, rev.Ruling.Required)
		}
	}
	if !sawRevoke {
		t.Error("no scene chain exercised revoke-consent")
	}
}
