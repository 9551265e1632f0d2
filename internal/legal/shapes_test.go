package legal

import (
	"reflect"
	"sync"
	"testing"
)

// linearRuling is the reference walk's ruling as Evaluate returns it:
// built from a validated action.
func linearRuling(e *Engine, a Action) Ruling {
	r := e.evaluateLinear(a)
	r.validated = true
	return r
}

// TestCachedEvaluationIdentical: the first evaluation of a shape (a
// shape-table miss) and every repeat (a hit) return rulings identical
// to the reference walk, across the whole sweep, and a hit hands out
// the interned slices rather than a copy.
func TestCachedEvaluationIdentical(t *testing.T) {
	e := NewEngine()
	for _, a := range sweepActions() {
		want := linearRuling(e, a)
		cold, err := e.Evaluate(a)
		if err != nil {
			t.Fatal(err)
		}
		warm, err := e.Evaluate(a)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cold, want) {
			t.Fatalf("first ruling diverged for %s", a.Fingerprint())
		}
		if !reflect.DeepEqual(warm, want) {
			t.Fatalf("repeated ruling diverged for %s", a.Fingerprint())
		}
		if &warm.Rationale[0] != &cold.Rationale[0] {
			t.Fatalf("repeated ruling for %s did not share the interned rationale", a.Fingerprint())
		}
	}
	if e.shapes.len() == 0 {
		t.Error("shape table recorded nothing")
	}
}

// TestShapeTableSweepIsSmall: the exhaustive combo × variant sweep
// (3456 actions) rules in a few dozen shapes per container doctrine —
// the premise that makes interning pay.
func TestShapeTableSweepIsSmall(t *testing.T) {
	for _, doctrine := range []ContainerDoctrine{ContainerPerFile, ContainerSingle} {
		e := NewEngine(WithContainerDoctrine(doctrine))
		n := 0
		forEachCombo(func(ac Actor, tm Timing, dc DataClass, s Source) {
			for _, v := range variantsOf(Action{Name: "shapes", Actor: ac, Timing: tm, Data: dc, Source: s}) {
				if _, err := e.Evaluate(v); err != nil {
					t.Fatal(err)
				}
				n++
			}
		})
		shapes := e.shapes.len()
		t.Logf("doctrine %v: %d actions, %d shapes", doctrine, n, shapes)
		if shapes > 64 {
			t.Errorf("doctrine %v: %d shapes for %d actions, want at most 64", doctrine, shapes, n)
		}
	}
}

// TestShapeTableBoundedUnderRepeatedExposure: Validate accepts repeated
// exposure facts and each repeat adds a Privacy reason, so a hostile
// stream can mint a new shape per action. The table must stop at
// maxShapes, and rulings past the bound must stay exact.
func TestShapeTableBoundedUnderRepeatedExposure(t *testing.T) {
	e := NewEngine()
	base := Action{Name: "hostile", Actor: ActorGovernment, Timing: TimingStored, Data: DataContent, Source: SourceTargetDevice}
	kinds := len(exposureNames)
	evaluated := 0
	for run := 1; e.shapes.len() < maxShapes || evaluated < 2*maxShapes; run++ {
		for k := 1; k <= kinds; k++ {
			for j := 1; j <= kinds; j++ {
				a := base
				for i := 0; i < run; i++ {
					a.Exposure = append(a.Exposure, ExposureFact(k))
				}
				a.Exposure = append(a.Exposure, ExposureFact(j))
				got, err := e.Evaluate(a)
				if err != nil {
					t.Fatal(err)
				}
				if n := e.shapes.len(); n > maxShapes {
					t.Fatalf("shape table grew to %d, past its bound %d", n, maxShapes)
				}
				if evaluated%97 == 0 && !reflect.DeepEqual(got, linearRuling(e, a)) {
					t.Fatalf("ruling for a %d-fact exposure run diverged from the reference walk", len(a.Exposure))
				}
				evaluated++
			}
		}
		if run > 4*maxShapeParts {
			t.Fatalf("%d evaluations filled only %d of %d shapes", evaluated, e.shapes.len(), maxShapes)
		}
	}
}

// TestShapeTableConcurrentFirstEvaluations: goroutines racing to
// evaluate the same actions on a fresh engine — every one a first
// evaluation, so misses insert while other readers look up — all get
// the reference rulings. ci.sh runs it under the race detector.
func TestShapeTableConcurrentFirstEvaluations(t *testing.T) {
	actions := sweepActions()
	e := NewEngine()
	want := make([]Ruling, len(actions))
	for i, a := range actions {
		want[i] = linearRuling(e, a)
	}
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range actions {
				i := (k + g*len(actions)/goroutines) % len(actions)
				got, err := e.Evaluate(actions[i])
				if err != nil || !reflect.DeepEqual(got, want[i]) {
					errs <- actions[i].Fingerprint()
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for fp := range errs {
		t.Errorf("concurrent first evaluation diverged for %s", fp)
	}
}
