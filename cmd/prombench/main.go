// Command prombench regenerates the tables and figures of the paper's
// evaluation (section 7) on laptop-scale reproductions of the model
// problem. Run with -exp all (default) for the full suite or name a single
// experiment; -full enlarges the scaled series and uses the paper's ten
// load steps in the nonlinear study.
//
// Usage:
//
//	prombench [-exp name] [-full] [-csv path]
//
// Experiments: table1, table2, fig7, fig9, fig10, fig11, fig12, fig13,
// thinbody, ordering, parmis, amg, phases, headline, ablations,
// blockbench, obsbench, parbench, mixedbench, servebench, serveobs,
// all.
// -csv additionally writes the scaled series as CSV for plotting.
// -json writes a kernel study as JSON to the given path: the obsbench
// observability report when -exp obsbench, the parbench real-core
// speedup study when -exp parbench, the mixedbench mixed-precision
// coarse-level study when -exp mixedbench, the servebench
// solver-as-a-service study when -exp servebench, the request-scoped
// observability overhead study when -exp serveobs, otherwise the
// blockbench CSR-vs-BSR study (schemas in EXPERIMENTS.md).
// -obs enables the observability subsystem for the whole run and prints
// the -log_view-style event table after the experiments finish.
package main

import (
	"flag"
	"fmt"
	"os"

	"prometheus/internal/experiments"
	"prometheus/internal/experiments/servebench"
	"prometheus/internal/multigrid"
	"prometheus/internal/obs"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (see package doc)")
	full := flag.Bool("full", false, "run the larger series and full load schedule")
	csvPath := flag.String("csv", "", "also write the scaled series as CSV to this path")
	jsonPath := flag.String("json", "", "write the obsbench (with -exp obsbench) or blockbench kernel study as JSON to this path")
	obsOn := flag.Bool("obs", false, "record obs events for the run and print the event table at the end")
	flag.Parse()

	if *obsOn {
		obs.Enable()
	}

	maxK := 2
	steps := 4
	nlK := 1
	if *full {
		maxK = 3
		steps = 10
		nlK = 2
	}

	w := os.Stdout
	var runs []*experiments.LinearRun
	var blockRep *experiments.BlockBenchReport
	var obsRep *experiments.ObsBenchReport
	var parRep *experiments.ParBenchReport
	var mixedRep *experiments.MixedBenchReport
	var serveRep *servebench.Report
	var serveObsRep *servebench.ObsReport
	needSeries := func() error {
		if runs != nil {
			return nil
		}
		var err error
		runs, err = experiments.RunSeries(maxK, multigrid.Options{})
		return err
	}

	run := func(name string) error {
		switch name {
		case "table1":
			return experiments.Table1(w)
		case "table2":
			if err := needSeries(); err != nil {
				return err
			}
			return experiments.Table2(w, runs)
		case "fig7":
			return experiments.Fig7(w)
		case "fig9":
			return experiments.Fig9(w)
		case "fig10":
			if err := needSeries(); err != nil {
				return err
			}
			return experiments.Fig10(w, runs)
		case "fig11":
			if err := needSeries(); err != nil {
				return err
			}
			return experiments.Fig11(w, runs)
		case "fig12":
			if err := needSeries(); err != nil {
				return err
			}
			return experiments.Fig12(w, runs)
		case "fig13":
			return experiments.Fig13(w, nlK, steps)
		case "thinbody":
			return experiments.ThinBody(w)
		case "ordering":
			return experiments.Ordering(w)
		case "parmis":
			return experiments.ParallelMISStudy(w)
		case "amg":
			return experiments.AMGCompare(w)
		case "phases":
			return experiments.Amortization(w)
		case "headline":
			if err := needSeries(); err != nil {
				return err
			}
			return experiments.Headline(w, runs)
		case "blockbench":
			rep, err := experiments.BlockBench()
			if err != nil {
				return err
			}
			blockRep = rep
			experiments.BlockBenchTable(w, rep)
			return nil
		case "obsbench":
			rep, err := experiments.ObsBench()
			if err != nil {
				return err
			}
			obsRep = rep
			experiments.ObsBenchTable(w, rep)
			return nil
		case "parbench":
			rep, err := experiments.ParBench()
			if err != nil {
				return err
			}
			parRep = rep
			experiments.ParBenchTable(w, rep)
			return nil
		case "mixedbench":
			rep, err := experiments.MixedBench()
			if err != nil {
				return err
			}
			mixedRep = rep
			experiments.MixedBenchTable(w, rep)
			return nil
		case "servebench":
			rep, err := servebench.Run()
			if err != nil {
				return err
			}
			serveRep = rep
			servebench.Table(w, rep)
			return nil
		case "serveobs":
			rep, err := servebench.RunObs()
			if err != nil {
				return err
			}
			serveObsRep = rep
			servebench.ObsTable(w, rep)
			return nil
		case "ablations":
			if err := experiments.AblationTOL(w); err != nil {
				return err
			}
			fmt.Fprintln(w)
			if err := experiments.AblationReclassify(w); err != nil {
				return err
			}
			fmt.Fprintln(w)
			if err := experiments.AblationBlocks(w); err != nil {
				return err
			}
			fmt.Fprintln(w)
			if err := experiments.AblationCycle(w); err != nil {
				return err
			}
			fmt.Fprintln(w)
			return experiments.AblationKrylov(w)
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
	}

	names := []string{*exp}
	if *exp == "all" {
		names = []string{"table1", "fig9", "fig7", "table2", "fig10", "fig11",
			"fig12", "headline", "fig13", "thinbody", "ordering", "parmis", "amg", "phases", "ablations", "blockbench", "obsbench", "parbench", "mixedbench", "servebench", "serveobs"}
	}
	if *jsonPath != "" && *exp != "blockbench" && *exp != "obsbench" && *exp != "parbench" && *exp != "mixedbench" && *exp != "servebench" && *exp != "serveobs" && *exp != "all" {
		names = append(names, "blockbench")
	}
	for i, name := range names {
		if i > 0 {
			fmt.Fprintln(w)
		}
		if err := run(name); err != nil {
			fmt.Fprintf(os.Stderr, "prombench: %s: %v\n", name, err)
			os.Exit(1)
		}
	}
	if *csvPath != "" {
		if err := needSeries(); err != nil {
			fmt.Fprintf(os.Stderr, "prombench: csv: %v\n", err)
			os.Exit(1)
		}
		f, err := os.Create(*csvPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "prombench: csv: %v\n", err)
			os.Exit(1)
		}
		err = experiments.WriteSeriesCSV(f, runs)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "prombench: csv: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(w, "\nwrote %s\n", *csvPath)
	}
	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "prombench: json: %v\n", err)
			os.Exit(1)
		}
		switch {
		case *exp == "obsbench":
			err = experiments.WriteObsBenchJSON(f, obsRep)
		case *exp == "parbench":
			err = experiments.WriteParBenchJSON(f, parRep)
		case *exp == "mixedbench":
			err = experiments.WriteMixedBenchJSON(f, mixedRep)
		case *exp == "servebench":
			err = servebench.WriteJSON(f, serveRep)
		case *exp == "serveobs":
			err = servebench.WriteObsJSON(f, serveObsRep)
		default:
			err = experiments.WriteBlockBenchJSON(f, blockRep)
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "prombench: json: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(w, "\nwrote %s\n", *jsonPath)
	}
	if *obsOn {
		fmt.Fprintln(w)
		if err := obs.Snapshot().WriteLogView(w); err != nil {
			fmt.Fprintf(os.Stderr, "prombench: obs: %v\n", err)
			os.Exit(1)
		}
	}
}
