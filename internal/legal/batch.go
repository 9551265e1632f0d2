package legal

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// batchChunk is the number of actions a worker claims per scheduling
// round. Single evaluations are sub-microsecond, so claiming work in
// chunks keeps coordination cost far below evaluation cost.
const batchChunk = 64

// EvaluateBatch evaluates actions concurrently across a bounded worker
// pool and returns the rulings in input order. The pool size is
// min(WithBatchWorkers, len(actions)), defaulting to one worker per
// available CPU.
//
// Each worker borrows one pooled evaluation scratch for its share of
// the batch, and every slot's ruling comes through the engine's shape
// table, so repeated shapes share their slices.
//
// Invalid actions do not abort the batch: their ruling slot is left zero
// and the returned error joins one error per failed index, in order. On
// context cancellation EvaluateBatch returns ctx.Err(); already-computed
// rulings are discarded.
func (e *Engine) EvaluateBatch(ctx context.Context, actions []Action) ([]Ruling, error) {
	if len(actions) == 0 {
		return nil, nil
	}

	workers := e.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(actions) {
		workers = len(actions)
	}

	rulings := make([]Ruling, len(actions))
	errs := make([]error, len(actions))
	if workers == 1 {
		sc := scratchPool.Get().(*evalScratch)
		defer scratchPool.Put(sc)
		for i := range actions {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			rulings[i], errs[i] = e.evaluate(actions[i], sc)
		}
		return rulings, joinIndexed(errs)
	}

	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		canceled atomic.Bool
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := scratchPool.Get().(*evalScratch)
			defer scratchPool.Put(sc)
			for {
				start := int(next.Add(batchChunk)) - batchChunk
				if start >= len(actions) {
					return
				}
				if ctx.Err() != nil {
					canceled.Store(true)
					return
				}
				end := start + batchChunk
				if end > len(actions) {
					end = len(actions)
				}
				for i := start; i < end; i++ {
					rulings[i], errs[i] = e.evaluate(actions[i], sc)
				}
			}
		}()
	}
	wg.Wait()
	if canceled.Load() {
		return nil, ctx.Err()
	}
	return rulings, joinIndexed(errs)
}

// joinIndexed wraps each non-nil error with its batch index and joins
// them in order, so a caller can attribute failures to inputs.
func joinIndexed(errs []error) error {
	var out []error
	for i, err := range errs {
		if err != nil {
			out = append(out, fmt.Errorf("action %d: %w", i, err))
		}
	}
	return errors.Join(out...)
}
