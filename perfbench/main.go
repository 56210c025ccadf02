// Command perfbench is the repository benchmark. It runs one workload
// for a fixed wall-clock window, checks every output against reference
// outputs computed in process at start-up, and prints every metric by
// name with its unit. The last line of standard output is one JSON
// object:
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {…}}
//
// With -trace 0 the metrics are the end-to-end metrics; with -trace 1
// the run is split into an untraced half and a traced half, and the
// metrics are the per-layer numbers of the traced half plus
// trace.overhead_ratio (untraced ÷ traced ops per second).
//
// Run it from the repository root through run.sh, which builds this
// package into .bench_build/:
//
//	bash perfbench/run.sh --workload campaign_local --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

// workloads maps each workload name to its runner. BENCHMARK.json and
// README.md say why each was chosen.
var workloads = map[string]func(cfg config) (*result, error){
	"campaign_local": runCampaignLocal,
	"service_fleet":  runServiceFleet,
	"mutate_explore": runMutateExplore,
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	window   time.Duration // total measurement window
	trace    bool
	root     string // checkout root: all files are read and written under it
}

// scratchDir returns a directory under the checkout's build area for
// the benchmark's own files, creating it.
func (c config) scratchDir(name string) (string, error) {
	dir := c.root + "/.bench_build/" + name
	return dir, os.MkdirAll(dir, 0o755)
}

func main() {
	var cfg config
	var seconds float64
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed generates the same inputs")
	flag.Float64Var(&seconds, "seconds", 10, "measurement window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	run, ok := workloads[cfg.workload]
	if !ok {
		fatalf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if seconds <= 0 || (trace != 0 && trace != 1) {
		fatalf("-seconds must be > 0 and -trace 0 or 1")
	}
	cfg.window = time.Duration(seconds * float64(time.Second))
	cfg.trace = trace == 1
	root, err := os.Getwd()
	if err != nil {
		fatalf("%v", err)
	}
	cfg.root = root

	fmt.Printf("provenance %s\n", mustJSON(provenance(cfg)))
	res, err := run(cfg)
	if err != nil {
		fatalf("%s: %v", cfg.workload, err)
	}
	res.rssMB = maxRSSMB()
	res.print(cfg)
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finite maps NaN/Inf (a ratio or quantile with no base) to 0 so the
// result line stays valid JSON; the human-readable lines print the base.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
