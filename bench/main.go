// Command bench is the repository's benchmark: four workloads (serve,
// scan, ingest, churn) measured end to end from outside the appliance,
// plus a traced run that attributes their cost to layers. See README.md.
//
//	go run . run -workload serve -seed 1 [-seconds 20] [-trace 1]
//	go run . all [-seed 1]
//	go run . selfcheck
//	go run . manifest
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = cmdRun(os.Args[2:])
	case "all":
		err = cmdAll(os.Args[2:])
	case "selfcheck":
		err = cmdSelfcheck(os.Args[2:])
	case "manifest":
		var out []byte
		if out, err = json.MarshalIndent(buildManifest(), "", "  "); err == nil {
			_, err = fmt.Printf("%s\n", out)
		}
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: bench run -workload <serve|scan|ingest|churn> -seed <n> [-seconds <s>] [-trace <0|1>] | all | selfcheck | manifest")
	os.Exit(2)
}

// defaultOutDir is bench/out when run from the repository root (as the
// driver does) and ./out when run from inside bench/.
func defaultOutDir() string {
	if st, err := os.Stat("bench"); err == nil && st.IsDir() {
		return filepath.Join("bench", "out")
	}
	return "out"
}

func runFlags(name string) (*flag.FlagSet, *runOpts, *int) {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	o := &runOpts{}
	trace := new(int)
	fs.StringVar(&o.workload, "workload", "", "serve, scan, ingest or churn")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", runSeconds, "measured seconds per run, shared by the four phases")
	fs.IntVar(trace, "trace", 0, "1 = traced run (one client, one fifth of each sequence, layer probes)")
	fs.StringVar(&o.outDir, "out", defaultOutDir(), "directory for data directories and trace files")
	return fs, o, trace
}

// cmdRun runs one workload. The full report goes to standard output first;
// the last line is the contract's result object.
func cmdRun(args []string) error {
	fs, o, trace := runFlags("run")
	fs.Parse(args)
	o.trace = *trace != 0
	return runAndEmit(*o)
}

func runAndEmit(o runOpts) error {
	rep, err := runWorkload(o)
	if err != nil {
		return fmt.Errorf("%s: %w", o.workload, err)
	}
	if err := emit(rep); err != nil {
		return err
	}
	if !rep.Correct {
		return fmt.Errorf("%s: %d of %d operations failed", rep.Workload, rep.Failed, rep.Attempted)
	}
	return nil
}

// emit prints the full report (indented) and then the result line.
func emit(rep *runReport) error {
	full, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	last, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, rep.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n%s\n", full, last)
	return err
}

// cmdAll runs the four workloads one after the other and fails if any did.
func cmdAll(args []string) error {
	fs, o, trace := runFlags("all")
	fs.Parse(args)
	o.trace = *trace != 0
	var firstErr error
	for _, w := range workloads {
		o.workload = w.Name
		if err := runAndEmit(*o); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}
