package scenario_test

import (
	"testing"

	"lawgate/internal/legal"
	"lawgate/internal/scenario"
)

// TestTable1DispatchSelectivity asserts, through the engine's own
// counters, that the compiled dispatch index pays off on the paper's
// workload: a cold evaluation of every Table 1 scene must consult
// strictly fewer rules than the table holds — i.e. no scene degrades to
// the naive linear scan.
func TestTable1DispatchSelectivity(t *testing.T) {
	for _, s := range scenario.Table1() {
		e := legal.NewEngine(legal.WithEngineStats())
		if _, err := e.Evaluate(s.Action); err != nil {
			t.Fatalf("scene %d: %v", s.Number, err)
		}
		st := e.Stats()
		if st.Evaluations != 1 {
			t.Fatalf("scene %d: Evaluations = %d, want 1", s.Number, st.Evaluations)
		}
		if st.RulesScanned == 0 {
			t.Fatalf("scene %d: no rules scanned", s.Number)
		}
		if st.RulesScanned >= uint64(st.RuleTableSize) {
			t.Errorf("scene %d (%s): cold evaluation scanned %d of %d rules — dispatch gained nothing",
				s.Number, s.Action.Name, st.RulesScanned, st.RuleTableSize)
		}
	}
}
