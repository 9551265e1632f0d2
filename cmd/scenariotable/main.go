// Command scenariotable regenerates Table 1 of "When Digital Forensic
// Research Meets Laws": the twenty digital-crime scenes, the paper's
// answer, and the lawgate engine's ruling for each. Experiment E1.
//
// Usage:
//
//	scenariotable [-verbose]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"

	"lawgate/internal/legal"
	"lawgate/internal/report"
	"lawgate/internal/scenario"
)

func main() {
	verbose := flag.Bool("verbose", false, "print rationale chains and citations")
	asJSON := flag.Bool("json", false, "emit the report as JSON")
	stats := flag.Bool("engine-stats", false, "print engine dispatch counters to stderr when done")
	flag.Parse()
	if err := run(*verbose, *asJSON, *stats); err != nil {
		fmt.Fprintln(os.Stderr, "scenariotable:", err)
		os.Exit(1)
	}
}

func run(verbose, asJSON, stats bool) error {
	var opts []legal.EngineOption
	if stats {
		opts = append(opts, legal.WithEngineStats())
	}
	engine := legal.NewEngine(opts...)
	defer func() {
		if stats {
			s := engine.Stats()
			fmt.Fprintf(os.Stderr,
				"engine stats: %d evaluations, %d rules scanned (table %d)\n",
				s.Evaluations, s.RulesScanned, s.RuleTableSize)
		}
	}()
	if asJSON {
		scenes, err := report.Table1Report(engine)
		if err != nil {
			return err
		}
		studies, err := report.CaseStudiesReport(engine)
		if err != nil {
			return err
		}
		return report.WriteJSON(os.Stdout, struct {
			Table1      []report.SceneView     `json:"table1"`
			CaseStudies []report.CaseStudyView `json:"caseStudies"`
			Matches     int                    `json:"matches"`
		}{scenes, studies, report.Matches(scenes)})
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "TABLE 1 — WARRANT/COURT ORDER/SUBPOENA IN DIGITAL CRIME SCENES")
	fmt.Fprintln(w, "#\tPaper\tEngine\tRegime\tRequired\tMatch")
	matches := 0
	sceneRulings, err := scenario.EvaluateTable1(context.Background(), engine)
	if err != nil {
		return err
	}
	for _, sr := range sceneRulings {
		s, r := sr.Scene, sr.Ruling
		engineAnswer := "No need"
		if r.NeedsProcess() {
			engineAnswer = "Need"
		}
		match := "OK"
		if sr.Matches() {
			matches++
		} else {
			match = "MISMATCH"
		}
		fmt.Fprintf(w, "%d\t%s\t%s\t%s\t%s\t%s\n",
			s.Number, s.Answer(), engineAnswer, r.Regime, r.Required, match)
		if verbose {
			fmt.Fprintf(w, "\t%s\t\t\t\t\n", s.Description)
			for _, reason := range r.Rationale {
				fmt.Fprintf(w, "\t· %s\t\t\t\t\n", reason)
			}
			cites := make([]string, 0, len(r.Citations))
			for _, c := range r.Citations {
				cites = append(cites, c.ID)
			}
			fmt.Fprintf(w, "\tcites: %s\t\t\t\t\n", strings.Join(cites, ", "))
		}
	}
	fmt.Fprintf(w, "\nAgreement: %d/20 scenes\n", matches)

	fmt.Fprintln(w, "\nSECTION IV CASE STUDIES")
	fmt.Fprintln(w, "ID\tPaper requires\tEngine requires\tMatch")
	studyRulings, err := scenario.EvaluateCaseStudies(context.Background(), engine)
	if err != nil {
		return err
	}
	for _, cr := range studyRulings {
		cs, r := cr.Study, cr.Ruling
		match := "OK"
		if !cr.Matches() {
			match = "MISMATCH"
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\n", cs.ID, cs.PaperProcess, r.Required, match)
		if verbose {
			fmt.Fprintf(w, "\t%s\t\t\n", cs.Description)
		}
	}
	return w.Flush()
}
