package capture

import (
	"strings"
	"sync"
	"testing"
	"time"

	"lawgate/internal/ledger"
	"lawgate/internal/legal"
)

// TestMonitorConcurrentApplyAndRead races a delta-emitting capture loop
// against auditors streaming the transcript, transitions, and current
// ruling. Run under -race (ci.sh runs the whole module with the race
// detector) this flushes out any unguarded monitor state; the final
// transcript and event count must also reflect every applied delta.
func TestMonitorConcurrentApplyAndRead(t *testing.T) {
	base := legal.Action{
		Name:   "race-capture",
		Actor:  legal.ActorGovernment,
		Timing: legal.TimingRealTime,
		Data:   legal.DataAddressing,
		Source: legal.SourceThirdPartyNetwork,
	}
	escalated := base
	escalated.Data = legal.DataContent

	led := ledger.New()
	engine := legal.NewEngine()
	m, err := NewMonitor(engine, base, WithAuditLedger(led, "op-race", "dev-race"))
	if err != nil {
		t.Fatal(err)
	}

	const events = 400
	var wg sync.WaitGroup
	done := make(chan struct{})

	// One capture loop emits the device's delta stream in order:
	// escalation to content, then back down, alternating — half the
	// events change the ruling, half resolve in the delta short-circuit.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		cur, next := base, escalated
		for i := 0; i < events; i++ {
			d := legal.Diff(&cur, &next)
			if _, _, err := m.Apply(time.Duration(i)*time.Millisecond, d); err != nil {
				t.Errorf("apply %d: %v", i, err)
				return
			}
			cur, next = next, cur
		}
	}()

	// Three auditors hammer the read accessors until the stream ends.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				_ = m.Transcript()
				_ = m.Transitions()
				_ = m.Ruling()
				_ = m.Events()
			}
		}()
	}
	wg.Wait()

	if got := m.Events(); got != events {
		t.Fatalf("events = %d, want %d", got, events)
	}
	// Base line plus one line per event, each newline-terminated.
	if got := strings.Count(m.Transcript(), "\n"); got != events+1 {
		t.Fatalf("transcript lines = %d, want %d", got, events+1)
	}
	if got := len(m.Transitions()); got != events {
		t.Fatalf("transitions = %d, want %d (every alternation changes the ruling)", got, events)
	}
	if got := led.Len(); got != events+1 {
		t.Fatalf("ledger records = %d, want %d", got, events+1)
	}
	if err := led.Verify(); err != nil {
		t.Fatalf("ledger verify after concurrent capture: %v", err)
	}
	// The final ruling must equal a fresh full evaluation of the final
	// action (events is even, so the stream ends back at base).
	want, err := legal.NewEngine().Evaluate(base)
	if err != nil {
		t.Fatal(err)
	}
	got := m.Ruling()
	if got.Required != want.Required || got.Regime != want.Regime {
		t.Fatalf("final ruling %v/%v, want %v/%v", got.Required, got.Regime, want.Required, want.Regime)
	}
}
