// Allocation and memory-bound regression guards for the evaluation hot
// path. Zero-allocation Evaluate is what interning ruling shapes buys
// (see shapes.go and BENCH_legal.json); these tests pin it, and pin the
// shape table's size, so a later refactor cannot silently rot either
// back, the way internal/netsim/alloc_test.go pins the simulator's
// event slab.
package legal_test

import (
	"context"
	"fmt"
	"testing"

	"lawgate/internal/legal"
)

// skipUnderRace skips allocation guards when the race detector is on.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("the race detector drops pooled evaluation scratch; allocation counts are meaningless")
	}
}

// warmedEngine returns an engine whose shape table already holds the
// shape of every given action.
func warmedEngine(t testing.TB, actions []legal.Action) *legal.Engine {
	t.Helper()
	e := legal.NewEngine()
	for _, a := range actions {
		if _, err := e.Evaluate(a); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// TestEvaluateColdZeroAlloc pins cold Evaluate — every action new to
// the engine, as on a serving path with unique names — to zero
// allocations on the Table 1 actions: the walk runs in pooled scratch
// and the ruling's slices come from the interned shape.
func TestEvaluateColdZeroAlloc(t *testing.T) {
	skipUnderRace(t)
	table := table1Actions()
	e := warmedEngine(t, table)
	const runs = 1000
	actions := distinctActions(runs + 1) // AllocsPerRun adds a warm-up call
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := e.Evaluate(actions[i]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Errorf("cold Evaluate allocs/op = %v, want 0", allocs)
	}
}

// TestEvaluateWarmZeroAlloc pins repeated evaluation of the same
// actions — exposure, consent and seized-device shapes — to zero
// allocations.
func TestEvaluateWarmZeroAlloc(t *testing.T) {
	skipUnderRace(t)
	actions := []legal.Action{
		{
			Name:   "warm-alloc-stored",
			Actor:  legal.ActorGovernment,
			Timing: legal.TimingStored,
			Data:   legal.DataDeviceContents,
			Source: legal.SourceSeizedDevice,
		},
		{
			Name:     "warm-alloc-realtime",
			Actor:    legal.ActorProvider,
			Timing:   legal.TimingRealTime,
			Data:     legal.DataAddressing,
			Source:   legal.SourceOwnNetwork,
			Exposure: []legal.ExposureFact{legal.ExposurePolicyEliminatesREP},
		},
		{
			Name:    "warm-alloc-consent",
			Actor:   legal.ActorGovernment,
			Timing:  legal.TimingStored,
			Data:    legal.DataContent,
			Source:  legal.SourceProviderStored,
			Consent: &legal.Consent{Scope: legal.ConsentOwnData},
		},
	}
	e := warmedEngine(t, actions)
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := e.Evaluate(actions[i%len(actions)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Errorf("warm Evaluate allocs/op = %v, want 0", allocs)
	}
}

// TestEvaluateDeltaZeroAlloc pins both delta paths to zero
// allocations: the dispatch-bitset short-circuit (a scalar-field delta
// the action's bucket provably never reads) and the full re-evaluation
// of a dimension delta whose shape the engine has seen.
func TestEvaluateDeltaZeroAlloc(t *testing.T) {
	skipUnderRace(t)
	base := legal.Action{
		Name:   "delta-alloc",
		Actor:  legal.ActorGovernment,
		Timing: legal.TimingStored,
		Data:   legal.DataDeviceContents,
		Source: legal.SourceSeizedDevice,
	}
	escalated := base
	escalated.Data = legal.DataContent
	e := warmedEngine(t, []legal.Action{base, escalated})
	prev, err := e.Evaluate(base)
	if err != nil {
		t.Fatal(err)
	}

	var scalar legal.ActionDelta
	scalar.SetFlag(legal.FieldEncrypted, false, true).
		SetFlag(legal.FieldProviderPublic, false, true)
	if allocs := testing.AllocsPerRun(1000, func() {
		if _, err := e.EvaluateDelta(&prev, scalar); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("short-circuit EvaluateDelta allocs/op = %v, want 0", allocs)
	}

	dim := legal.Diff(&base, &escalated)
	if allocs := testing.AllocsPerRun(1000, func() {
		if _, err := e.EvaluateDelta(&prev, dim); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("re-evaluating EvaluateDelta allocs/op = %v, want 0", allocs)
	}
}

// TestEvaluateBatchWarmAllocs pins the batch path once the shape table
// is warm: with a single worker (no goroutine spawning), the only
// allocations EvaluateBatch may make are its two result slices — the
// per-action evaluations ride the worker's pooled scratch and the
// interned shapes.
func TestEvaluateBatchWarmAllocs(t *testing.T) {
	skipUnderRace(t)
	actions := make([]legal.Action, 16)
	for i := range actions {
		actions[i] = legal.Action{
			Name:   "batch-alloc-" + string(rune('a'+i)),
			Actor:  legal.ActorGovernment,
			Timing: legal.TimingStored,
			Data:   legal.DataClass(i%6 + 1),
			Source: legal.SourceSeizedDevice,
		}
	}
	e := legal.NewEngine(legal.WithBatchWorkers(1))
	ctx := context.Background()
	if _, err := e.EvaluateBatch(ctx, actions); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := e.EvaluateBatch(ctx, actions); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("warm single-worker EvaluateBatch allocs/op = %v, want <= 2 (rulings + errs)", allocs)
	}
}

// TestShapeTableBoundedByDistinctNames: the shape table's size depends
// on the rule table, not on the action stream — ruling 1<<16 distinct
// names over the Table 1 shapes leaves it exactly as large as the
// Table 1 actions alone make it.
func TestShapeTableBoundedByDistinctNames(t *testing.T) {
	e := warmedEngine(t, table1Actions())
	want := legal.ShapeCount(e)
	if want == 0 {
		t.Fatal("Table 1 interned no shapes")
	}
	a := table1Actions()
	for i := 0; i < 1<<16; i++ {
		act := a[i%len(a)]
		act.Name = fmt.Sprint("distinct-", i)
		if _, err := e.Evaluate(act); err != nil {
			t.Fatal(err)
		}
	}
	if got := legal.ShapeCount(e); got != want {
		t.Fatalf("shape table grew from %d to %d over 1<<16 distinct names", want, got)
	}
}
