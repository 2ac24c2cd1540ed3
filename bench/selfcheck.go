package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// selfcheck measures the benchmark against itself the way the driver
// does: two sets of runs of the same code, each run with another seed.
// Per workload and end-to-end metric it prints both medians, each set's
// spread (interquartile range over median) and the bound, and fails if
// the second median is worse than the first by more than the bound or a
// spread exceeds it.

// machine describes where a result row was measured.
type machine struct {
	NProc     int    `json:"nproc"`
	CPU       string `json:"cpu_model"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
}

func describeMachine() machine {
	m := machine{NProc: runtime.NumCPU(), GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, CPU: "unknown"}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
				m.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return m
}

// checkRow is one workload x metric comparison.
type checkRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Better   string  `json:"better"`
	Bound    float64 `json:"bound"`
	Median1  float64 `json:"median_set1"`
	Median2  float64 `json:"median_set2"`
	Spread1  float64 `json:"spread_set1"`
	Spread2  float64 `json:"spread_set2"`
	// WorseBy is how much worse set 2's median is than set 1's, as a share
	// of set 1's (negative = better).
	WorseBy float64 `json:"worse_by"`
	OK      bool    `json:"ok"`
}

// selfcheckReport is what selfcheck prints and what bench/results keeps.
type selfcheckReport struct {
	Machine machine     `json:"machine"`
	Seconds float64     `json:"seconds"`
	Runs    int         `json:"runs_per_set"`
	Seeds   [2][]int64  `json:"seeds"`
	Rows    []checkRow  `json:"rows"`
	Values  [2]valueSet `json:"values"`
	OK      bool        `json:"ok"`
}

// valueSet holds every run's value: workload -> metric -> one per seed.
type valueSet map[string]map[string][]float64

func cmdSelfcheck(args []string) error {
	fs := flag.NewFlagSet("selfcheck", flag.ExitOnError)
	runs := fs.Int("runs", 10, "runs per workload in each of the two sets")
	seconds := fs.Float64("seconds", runSeconds, "measured seconds per run")
	seed0 := fs.Int64("seed", 1, "first seed; run i of set s uses seed + s*runs + i")
	outDir := fs.String("out", defaultOutDir(), "directory for data directories")
	fs.Parse(args)
	self, err := os.Executable()
	if err != nil {
		return err
	}
	rep := selfcheckReport{Machine: describeMachine(), Seconds: *seconds, Runs: *runs, OK: true}
	for set := 0; set < 2; set++ {
		rep.Values[set] = valueSet{}
		for i := 0; i < *runs; i++ {
			rep.Seeds[set] = append(rep.Seeds[set], *seed0+int64(set**runs+i))
		}
		for _, w := range workloads {
			rep.Values[set][w.Name] = map[string][]float64{}
			for _, seed := range rep.Seeds[set] {
				fmt.Fprintf(os.Stderr, "selfcheck: set %d %s seed %d\n", set+1, w.Name, seed)
				// A fresh process per run, as the driver starts them.
				cmd := exec.Command(self, "run", "-workload", w.Name, "-seed", fmt.Sprint(seed),
					"-seconds", fmt.Sprint(*seconds), "-out", *outDir)
				cmd.Stderr = os.Stderr
				stdout, err := cmd.Output()
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", w.Name, seed, err)
				}
				lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
				var res struct {
					Correct bool                   `json:"correct"`
					Metrics map[string]metricValue `json:"metrics"`
				}
				if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
					return fmt.Errorf("%s seed %d: result line: %w", w.Name, seed, err)
				}
				for name, m := range res.Metrics {
					rep.Values[set][w.Name][name] = append(rep.Values[set][w.Name][name], m.Value)
				}
			}
		}
	}
	for _, w := range workloads {
		for _, def := range endToEnd {
			row := compareSets(w.Name, def, rep.Values[0][w.Name][def.Name], rep.Values[1][w.Name][def.Name])
			rep.Rows = append(rep.Rows, row)
			rep.OK = rep.OK && row.OK
		}
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", out)
	if !rep.OK {
		return fmt.Errorf("selfcheck: two sets of the same code disagree beyond a bound; lengthen the run rather than widen the bound")
	}
	return nil
}

// compareSets applies the driver's two rules to one metric on one
// workload.
func compareSets(workload string, def metricDef, a, b []float64) checkRow {
	row := checkRow{Workload: workload, Metric: def.Name, Unit: def.Unit, Better: def.Better, Bound: def.Bound,
		Median1: medianF(a), Median2: medianF(b), Spread1: spread(a), Spread2: spread(b)}
	row.WorseBy = (row.Median2 - row.Median1) / row.Median1
	if def.Better == higher {
		row.WorseBy = -row.WorseBy
	}
	row.OK = row.WorseBy <= def.Bound
	if def.Name != "setup_s" { // set-up's spread is reported, not judged
		row.OK = row.OK && row.Spread1 <= def.Bound && row.Spread2 <= def.Bound
	}
	return row
}

// spread is the interquartile range as a share of the median.
func spread(v []float64) float64 {
	q1, q3 := quartiles(v)
	return (q3 - q1) / medianF(v)
}
