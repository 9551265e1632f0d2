// The rulings/sec throughput suite: how fast the engine serves ruling
// queries on the paths production consumers hit — a single Evaluate
// (dispatch walk plus shape-table lookup) and the concurrent batch API
// across worker counts. scripts/bench.sh's `legal` target runs this family
// and writes the median numbers to BENCH_legal.json next to the
// embedded before-baseline (scripts/bench_baseline_legal.json).
//
// Every sub-benchmark does one Evaluate (or one whole batch) per
// iteration and also reports rulings/s, so ns/op and throughput can be
// read off the same line.
package legal_test

import (
	"context"
	"fmt"
	"testing"

	"lawgate/internal/legal"
	"lawgate/internal/scenario"
)

// table1Actions returns the paper's twenty Table 1 scenes — the
// representative production query mix.
func table1Actions() []legal.Action {
	scenes := scenario.Table1()
	actions := make([]legal.Action, len(scenes))
	for i, s := range scenes {
		actions[i] = s.Action
	}
	return actions
}

// distinctActions builds n unique-fingerprint actions by cycling the
// Table 1 shapes under fresh names — the serving mix, where no two
// requests share an action but their rulings share a few shapes.
func distinctActions(n int) []legal.Action {
	base := table1Actions()
	actions := make([]legal.Action, n)
	for i := range actions {
		a := base[i%len(base)]
		a.Name = fmt.Sprintf("distinct-%d", i)
		actions[i] = a
	}
	return actions
}

// BenchmarkRulingsPerSec is the engine throughput family the tracked
// BENCH_legal.json baseline records.
func BenchmarkRulingsPerSec(b *testing.B) {
	actions := table1Actions()

	// cold: every query walks its dispatch bucket; its ruling's slices
	// come from the interned shape.
	b.Run("cold", func(b *testing.B) {
		engine := legal.NewEngine()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := engine.Evaluate(actions[i%len(actions)]); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "rulings/s")
	})

	// batch: 4096 distinct actions per op through the concurrent batch
	// API, at fixed worker counts so numbers compare across machines.
	const batchSize = 4096
	distinct := distinctActions(batchSize)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("batch/workers=%d", workers), func(b *testing.B) {
			engine := legal.NewEngine(legal.WithBatchWorkers(workers))
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := engine.EvaluateBatch(ctx, distinct); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N*batchSize)/b.Elapsed().Seconds(), "rulings/s")
		})
	}

}

// BenchmarkEvaluateDelta measures incremental re-evaluation after a
// small mutation — the streaming-capture event shape. full-rebuild is
// the pre-delta cost of the same event (mutate the action, run a full
// Evaluate); delta/scalar2 is the dispatch-bitset short-circuit for a
// two-flag delta (the ci.sh ≥3x gate); delta/dim1 is a dimension
// escalation, re-evaluated in full.
func BenchmarkEvaluateDelta(b *testing.B) {
	base := legal.Action{
		Name:   "delta-bench",
		Actor:  legal.ActorGovernment,
		Timing: legal.TimingStored,
		Data:   legal.DataDeviceContents,
		Source: legal.SourceSeizedDevice,
	}
	var scalar2 legal.ActionDelta
	scalar2.SetFlag(legal.FieldEncrypted, false, true).
		SetFlag(legal.FieldProviderPublic, false, true)

	b.Run("full-rebuild/scalar2", func(b *testing.B) {
		engine := legal.NewEngine()
		prev, err := engine.Evaluate(base)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a := prev.Action
			scalar2.Apply(&a)
			if _, err := engine.Evaluate(a); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "rulings/s")
	})

	b.Run("delta/scalar2", func(b *testing.B) {
		engine := legal.NewEngine()
		prev, err := engine.Evaluate(base)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := engine.EvaluateDelta(&prev, scalar2); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "rulings/s")
	})

	b.Run("delta/dim1", func(b *testing.B) {
		escalated := base
		escalated.Data = legal.DataContent
		engine := legal.NewEngine()
		prev, err := engine.Evaluate(base)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := engine.Evaluate(escalated); err != nil {
			b.Fatal(err)
		}
		d := legal.Diff(&base, &escalated)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := engine.EvaluateDelta(&prev, d); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "rulings/s")
	})
}
