package legal

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// TestEvaluateBatchMatchesSequential: the batch API is a parallel
// refactoring of the sequential loop, so across a broad sweep the rulings
// must be identical, in input order.
func TestEvaluateBatchMatchesSequential(t *testing.T) {
	actions := sweepActions()
	e := NewEngine()
	want := make([]Ruling, len(actions))
	for i, a := range actions {
		r, err := e.Evaluate(a)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}
	for _, workers := range []int{0, 1, 2, 7} {
		e := NewEngine(WithBatchWorkers(workers))
		got, err := e.EvaluateBatch(context.Background(), actions)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d rulings, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("workers=%d: ruling %d diverged from sequential:\n got %+v\nwant %+v",
					workers, i, got[i], want[i])
			}
		}
	}
}

// TestEvaluateBatchWithCacheMatchesSequential: batch + shape table
// together — a fresh engine whose workers intern shapes concurrently,
// with every action repeated so slots hit shapes other workers are
// inserting, must still reproduce the reference rulings (this is also
// the race-detector workout for the shape table under batch load).
func TestEvaluateBatchWithCacheMatchesSequential(t *testing.T) {
	actions := sweepActions()
	actions = append(actions, actions...)
	e := NewEngine(WithBatchWorkers(4))
	got, err := e.EvaluateBatch(context.Background(), actions)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range actions {
		want := linearRuling(e, a)
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("batch ruling %d diverged:\n got %+v\nwant %+v", i, got[i], want)
		}
	}
	if n := e.shapes.len(); n == 0 || n > len(actions)/2 {
		t.Errorf("shape table holds %d shapes, want within (0, %d]", n, len(actions)/2)
	}
}

// TestEvaluateBatchPartialErrors: invalid actions error by index without
// aborting the rest of the batch.
func TestEvaluateBatchPartialErrors(t *testing.T) {
	valid := Action{
		Name: "ok", Actor: ActorGovernment, Timing: TimingStored,
		Data: DataDeviceContents, Source: SourceTargetDevice,
	}
	actions := []Action{valid, {Name: "broken"}, valid}
	rulings, err := NewEngine().EvaluateBatch(context.Background(), actions)
	if err == nil {
		t.Fatal("batch with an invalid action must report an error")
	}
	if !strings.Contains(err.Error(), "action 1") {
		t.Errorf("error does not attribute the failing index: %v", err)
	}
	if rulings[0].Required != ProcessSearchWarrant || rulings[2].Required != ProcessSearchWarrant {
		t.Error("valid actions around the failure were not evaluated")
	}
	if rulings[1].Required != 0 {
		t.Error("failed slot must stay zero")
	}
}

// TestEvaluateBatchCanceled: a canceled context aborts the batch.
func TestEvaluateBatchCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	actions := make([]Action, 10_000)
	for i := range actions {
		actions[i] = Action{
			Name: "canceled", Actor: ActorGovernment, Timing: TimingStored,
			Data: DataDeviceContents, Source: SourceTargetDevice,
		}
	}
	for _, workers := range []int{1, 4} {
		e := NewEngine(WithBatchWorkers(workers))
		if _, err := e.EvaluateBatch(ctx, actions); !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
}

// TestEvaluateBatchEmpty: an empty batch is a no-op.
func TestEvaluateBatchEmpty(t *testing.T) {
	rulings, err := NewEngine().EvaluateBatch(context.Background(), nil)
	if err != nil || rulings != nil {
		t.Errorf("empty batch = (%v, %v), want (nil, nil)", rulings, err)
	}
}
