// Command advise runs the lawgate redesign advisor over every Table 1
// scene that requires process, printing the cheaper designs the paper
// recommends researchers aim for ("focus on crime scene investigations
// that do not need Warrant/Court Order/Subpoena").
//
// Usage:
//
//	advise [-scene N]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"lawgate/internal/legal"
	"lawgate/internal/scenario"
)

func main() {
	sceneNum := flag.Int("scene", 0, "advise a single Table 1 scene (0 = all scenes needing process)")
	stats := flag.Bool("engine-stats", false, "print engine dispatch counters to stderr when done")
	flag.Parse()
	if err := run(*sceneNum, *stats); err != nil {
		fmt.Fprintln(os.Stderr, "advise:", err)
		os.Exit(1)
	}
}

func run(sceneNum int, stats bool) error {
	var opts []legal.EngineOption
	if stats {
		opts = append(opts, legal.WithEngineStats())
	}
	engine := legal.NewEngine(opts...)
	var scenes []scenario.Scene
	if sceneNum != 0 {
		s, err := scenario.ByNumber(sceneNum)
		if err != nil {
			return err
		}
		scenes = []scenario.Scene{s}
	} else {
		scenes = scenario.Table1()
	}
	actions := make([]legal.Action, len(scenes))
	for i, s := range scenes {
		actions[i] = s.Action
	}
	rulings, err := engine.EvaluateBatch(context.Background(), actions)
	if err != nil {
		return err
	}
	for i, s := range scenes {
		ruling := rulings[i]
		if !ruling.NeedsProcess() {
			continue
		}
		fmt.Printf("Scene %d: %s\n", s.Number, s.Description)
		fmt.Printf("  as designed: %s (%s)\n", ruling.Required, ruling.Regime)
		advice, err := engine.Advise(s.Action)
		if err != nil {
			return err
		}
		if len(advice) == 0 {
			fmt.Println("  no cheaper redesign available within the encoded doctrine")
		}
		for _, ad := range advice {
			fmt.Printf("  -> %s: %s\n     %s\n",
				ad.Ruling.Required, ad.Alternative.Name, ad.Explanation)
		}
		fmt.Println()
	}
	if stats {
		s := engine.Stats()
		fmt.Fprintf(os.Stderr,
			"engine stats: %d evaluations, %d rules scanned (table %d)\n",
			s.Evaluations, s.RulesScanned, s.RuleTableSize)
	}
	return nil
}
