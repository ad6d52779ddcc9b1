// Command dsr-bench is the repository's benchmark: it drives dsr-serve
// over a real TCP shard fleet and reports what a user of the system
// waits on (throughput, latency, set-up time), then — in a separate
// traced run — where that time goes, layer by layer. See README.md in
// this directory; BENCHMARK.json at the repository root is the contract.
//
// One invocation measures one workload:
//
//	dsr-bench -bin <dir> -tmp <dir> --workload loc-closed --seed 1 --seconds 10 --trace 0
//
// and prints one JSON object as the last line of standard output.
// Everything else (progress, diagnostics, the stage table) goes to
// standard error. Other modes: -repeat N (a series over seeds, written
// to -out), -compare a.json b.json, -smoke.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// result is the last line of standard output, exactly these keys.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// record is a result with its identity and diagnostics, as -out and
// -repeat store it.
type record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    int    `json:"trace"`
	result
	Diag map[string]any `json:"diagnostics"`
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	binDir   string
	tmpDir   string
	traceOut string
	smoke    bool
}

func main() { os.Exit(run()) }

func run() int {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: loc-closed, hash-closed, loc-open, loc-zipf (with -repeat: empty means all)")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed of the generated load: query streams, Zipf draws, arrival times, verification sample (the graph is a constant)")
	flag.IntVar(&cfg.seconds, "seconds", 15, "length of the measured window in seconds, summed over the run's fleets")
	flag.IntVar(&cfg.trace, "trace", 0, "0: end-to-end run against child processes; 1: traced in-process run with per-layer metrics")
	flag.StringVar(&cfg.binDir, "bin", ".bench_build/bin", "directory holding the dsr-shard and dsr-serve binaries")
	flag.StringVar(&cfg.tmpDir, "tmp", ".bench_build/tmp", "parent of the run's scratch directory (removed on exit)")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "with -trace 1: write every span to this file, one JSON object per line")
	flag.BoolVar(&cfg.smoke, "smoke", false, "run every workload shape for one second against a small in-process fleet, end to end and traced, and exit")
	out := flag.String("out", "", "also write the full record (metrics and diagnostics) to this file")
	repeat := flag.Int("repeat", 0, "run the workload(s) at this many consecutive seeds starting at -seed and write the series to -out")
	compare := flag.Bool("compare", false, "compare two series files (arguments) under the bounds in -spec")
	specPath := flag.String("spec", "BENCHMARK.json", "benchmark contract read by -compare and -repeat")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "dsr-bench: -compare takes two series files")
			return 2
		}
		return compareSeries(os.Stdout, *specPath, flag.Arg(0), flag.Arg(1))
	}
	if cfg.seconds < 1 {
		fmt.Fprintln(os.Stderr, "dsr-bench: -seconds must be at least 1")
		return 2
	}

	sb, err := newSandbox(cfg.tmpDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dsr-bench: %v\n", err)
		return 1
	}
	defer sb.cleanup()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		sb.cleanup()
		os.Exit(130)
	}()

	switch {
	case cfg.smoke:
		err = runSmoke(cfg, sb)
	case *repeat > 0:
		err = runSeries(cfg, sb, *repeat, *out, *specPath)
	default:
		var rec record
		if rec, err = runOne(cfg, sb); err == nil {
			if *out != "" {
				err = writeJSON(*out, rec)
			}
			if err == nil {
				err = json.NewEncoder(os.Stdout).Encode(rec.result)
			}
		}
	}
	if err != nil {
		// No result line: a run that failed has no metrics.
		fmt.Fprintf(os.Stderr, "dsr-bench: %v\n", err)
		return 1
	}
	return 0
}

// runOne measures one workload in the mode cfg.trace selects.
func runOne(cfg config, sb *sandbox) (record, error) {
	i := workloadIndex(cfg.workload)
	if i < 0 {
		return record{}, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	wl := workloads[i]
	rec := record{Workload: wl.Name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Diag: map[string]any{"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version()}}
	rec.Metrics = metrics{}
	var err error
	if cfg.trace == 0 {
		err = runEndToEnd(cfg, sb, wl, &rec)
	} else {
		err = runTraced(cfg, sb, wl, &rec)
	}
	return rec, err
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
