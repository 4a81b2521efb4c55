// Command perfbench is the repository benchmark: three workloads that
// exercise the G-COPSS data path from three sides, each checked for
// correctness by the same command that measures it.
//
//	backbone   the 279-router, 2,000-player packet-level testbed run
//	daemon     the TCP daemon driven over loopback by two edge connections
//	sim-paper  the paper's large-scale tables and figures on the simulator
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload backbone --seed 42 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are the
// end-to-end metrics, measured untraced; with --trace 1 they are the
// per-layer metrics of a traced run. The line before it is the full report:
// host block, per-iteration values, gate outcomes. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// unitOf is the catalogue of every metric the benchmark can print, with its
// unit. endToEnd and perLayer list what --trace 0 and --trace 1 print.
var unitOf = map[string]string{
	"setup_s":                   "s",
	"run_s":                     "s",
	"cpu_s":                     "s",
	"alloc_mb":                  "MB",
	"allocs":                    "count",
	"max_rss_mb":                "MB",
	"delivery_p50_ms.light":     "ms",
	"delivery_p50_ms.heavy":     "ms",
	"deliveries_per_s.saturate": "1/s",

	"event.events":                  "count",
	"event.dispatch_ns_per_event":   "ns",
	"event.queue_high_water":        "count",
	"testbed.emits":                 "count",
	"testbed.emit_ns_per_pkt":       "ns",
	"core.handle_calls":             "count",
	"core.self_ns_per_call":         "ns",
	"core.burst_ns_per_pkt":         "ns",
	"core.control_ns_per_pkt":       "ns",
	"copss.bloom_probes":            "count",
	"copss.bloom_false_frac":        "ratio",
	"trace.next_ns_per_update":      "ns",
	"wire.encode_ns_per_pkt":        "ns",
	"wire.decode_ns_per_pkt":        "ns",
	"transport.write_ns_per_frame":  "ns",
	"transport.pkts_per_write":      "pkt",
	"transport.pkts_per_read":       "pkt",
	"loadgen.lag_p99_ms":            "ms",
	"loadgen.delivery_p99_ms.light": "ms",
	"loadgen.delivery_p99_ms.heavy": "ms",
	"experiments.table1_s":          "s",
	"experiments.table2_s":          "s",
	"experiments.table3_s":          "s",
	"experiments.fig5_s":            "s",
	"experiments.fig6_s":            "s",
	"trace.generate_s":              "s",
	"sim.env_s":                     "s",
	"runtime.gc_cpu_frac":           "ratio",
	"runtime.gc_cycles":             "count",
	"tracing.overhead_s":            "s",
}

var endToEnd = []string{
	"setup_s", "run_s", "cpu_s", "alloc_mb", "allocs", "max_rss_mb",
	"delivery_p50_ms.light", "delivery_p50_ms.heavy", "deliveries_per_s.saturate",
}

var perLayer = []string{
	"event.events", "event.dispatch_ns_per_event", "event.queue_high_water",
	"testbed.emits", "testbed.emit_ns_per_pkt",
	"core.handle_calls", "core.self_ns_per_call", "core.burst_ns_per_pkt", "core.control_ns_per_pkt",
	"copss.bloom_probes", "copss.bloom_false_frac",
	"trace.next_ns_per_update",
	"wire.encode_ns_per_pkt", "wire.decode_ns_per_pkt",
	"transport.write_ns_per_frame", "transport.pkts_per_write", "transport.pkts_per_read",
	"loadgen.lag_p99_ms", "loadgen.delivery_p99_ms.light", "loadgen.delivery_p99_ms.heavy",
	"experiments.table1_s", "experiments.table2_s", "experiments.table3_s",
	"experiments.fig5_s", "experiments.fig6_s", "trace.generate_s", "sim.env_s",
	"runtime.gc_cpu_frac", "runtime.gc_cycles",
	"tracing.overhead_s",
}

// config is one invocation.
type config struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	// Tiny shrinks every workload to a few seconds in total. Only the smoke
	// test sets it; the command line has no flag for it.
	Tiny bool
	// Out is the directory for Chrome traces and saved reports.
	Out string
}

// workloads maps a workload name to its runner. A runner fills r with every
// end-to-end metric (trace off) or every per-layer metric of the layers the
// workload crosses (trace on), and records its correctness gates.
var workloads = map[string]func(cfg config, r *run) error{
	"backbone":  runBackbone,
	"daemon":    runDaemon,
	"sim-paper": runSimPaper,
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract line: the last line of standard output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

type gateResult struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// run accumulates one invocation's measurements and gate outcomes.
type run struct {
	values     map[string]float64
	raw        map[string][]float64
	gates      []gateResult
	attempted  int
	failed     int
	notes      map[string]any
	notCrossed []string
}

func newRun() *run {
	return &run{values: map[string]float64{}, raw: map[string][]float64{}, notes: map[string]any{}}
}

// set records a single-valued metric.
func (r *run) set(name string, v float64) {
	if _, ok := unitOf[name]; !ok {
		panic("perfbench: metric missing from catalogue: " + name)
	}
	r.values[name] = v
}

// series records a metric measured once per iteration; its value is the
// median, and the raw values stay in the report.
func (r *run) series(name, unit string, vs []float64) {
	if unitOf[name] != unit {
		panic(fmt.Sprintf("perfbench: metric %s has unit %q, catalogue says %q", name, unit, unitOf[name]))
	}
	r.raw[name] = vs
	r.set(name, median(vs))
}

// gate records one correctness check.
func (r *run) gate(name string, ok bool, detail string) {
	r.gates = append(r.gates, gateResult{Name: name, OK: ok, Detail: detail})
}

// count adds checked operations and the failed ones among them.
func (r *run) count(attempted, failed int) {
	r.attempted += attempted
	r.failed += failed
}

func (r *run) correct() bool {
	if r.failed > 0 || r.attempted == 0 {
		return false
	}
	for _, g := range r.gates {
		if !g.OK {
			return false
		}
	}
	return true
}

// contract builds the final line for the given metric list. Per-layer
// metrics of layers the workload does not cross are 0 and are listed in the
// report; a missing end-to-end metric is a benchmark bug.
func (r *run) contract(names []string, endToEnd bool) (result, error) {
	out := result{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricOut{}}
	for _, n := range names {
		v, ok := r.values[n]
		if !ok {
			if endToEnd {
				return out, fmt.Errorf("end-to-end metric %s was not measured", n)
			}
			r.notCrossed = append(r.notCrossed, n)
			v = 0
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return out, fmt.Errorf("metric %s is %v", n, v)
		}
		out.Metrics[n] = metricOut{Value: v, Unit: unitOf[n]}
	}
	return out, nil
}

// report is the full record printed before the contract line and saved
// under the output directory.
type report struct {
	Workload     string               `json:"workload"`
	Seed         int64                `json:"seed"`
	Seconds      float64              `json:"seconds"`
	Trace        bool                 `json:"trace"`
	Tiny         bool                 `json:"tiny,omitempty"`
	Host         hostBlock            `json:"host"`
	HostMismatch string               `json:"host_mismatch,omitempty"`
	Values       map[string]float64   `json:"values"`
	Raw          map[string][]float64 `json:"raw"`
	Gates        []gateResult         `json:"gates"`
	Attempted    int                  `json:"attempted"`
	Failed       int                  `json:"failed"`
	FailedFrac   float64              `json:"failed_frac"`
	NotCrossed   []string             `json:"not_crossed,omitempty"`
	Notes        map[string]any       `json:"notes,omitempty"`
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, rep, err := execute(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := saveReport(cfg, &rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: saving report:", err)
	}
	repLine, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	resLine, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(repLine))
	fmt.Println(string(resLine))
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	var trace int
	fs.StringVar(&cfg.Workload, "workload", "", "backbone, daemon or sim-paper")
	fs.Int64Var(&cfg.Seed, "seed", defaultSeed, "workload seed")
	fs.Float64Var(&cfg.Seconds, "seconds", 20, "length of the timed phase in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer mode")
	fs.StringVar(&cfg.Out, "out", filepath.Join(".bench_build", "perfbench"), "directory for Chrome traces and saved reports")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if _, ok := workloads[cfg.Workload]; !ok {
		return cfg, fmt.Errorf("unknown workload %q (want %s)", cfg.Workload, workloadNames())
	}
	if cfg.Seconds <= 0 {
		return cfg, errors.New("--seconds must be positive")
	}
	if trace != 0 && trace != 1 {
		return cfg, errors.New("--trace must be 0 or 1")
	}
	cfg.Trace = trace == 1
	return cfg, nil
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// execute runs one workload and assembles the contract line and the report.
func execute(cfg config) (result, report, error) {
	r := newRun()
	if err := workloads[cfg.Workload](cfg, r); err != nil {
		return result{}, report{}, fmt.Errorf("%s: %w", cfg.Workload, err)
	}
	names := endToEnd
	if cfg.Trace {
		names = perLayer
	}
	res, err := r.contract(names, !cfg.Trace)
	if err != nil {
		return res, report{}, fmt.Errorf("%s: %w", cfg.Workload, err)
	}
	rep := report{
		Workload:   cfg.Workload,
		Seed:       cfg.Seed,
		Seconds:    cfg.Seconds,
		Trace:      cfg.Trace,
		Tiny:       cfg.Tiny,
		Host:       hostInfo(),
		Values:     finite(r.values),
		Raw:        r.raw,
		Gates:      r.gates,
		Attempted:  r.attempted,
		Failed:     r.failed,
		NotCrossed: r.notCrossed,
		Notes:      r.notes,
	}
	if r.attempted > 0 {
		rep.FailedFrac = float64(r.failed) / float64(r.attempted)
	}
	return res, rep, nil
}

// finite drops NaN and infinite values, which JSON cannot carry.
func finite(m map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, v := range m {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			out[k] = v
		}
	}
	return out
}
