package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// hostBlock identifies where and on what code a result was measured. Two
// results are comparable only when their host blocks agree on everything
// but the revision and the seed.
type hostBlock struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	// Revision is the VCS revision stamped into the binary, or "unknown"
	// when it was built outside a git checkout.
	Revision string `json:"revision"`
}

func hostInfo() hostBlock {
	h := hostBlock{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Revision:   "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Revision = s.Value
			}
		}
	}
	return h
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sameHost reports how two host blocks differ in what affects timings
// (empty when they agree).
func sameHost(a, b hostBlock) string {
	var diffs []string
	if a.CPUModel != b.CPUModel {
		diffs = append(diffs, fmt.Sprintf("cpu %q vs %q", a.CPUModel, b.CPUModel))
	}
	if a.NProc != b.NProc {
		diffs = append(diffs, fmt.Sprintf("nproc %d vs %d", a.NProc, b.NProc))
	}
	if a.GOMAXPROCS != b.GOMAXPROCS {
		diffs = append(diffs, fmt.Sprintf("GOMAXPROCS %d vs %d", a.GOMAXPROCS, b.GOMAXPROCS))
	}
	if a.GoVersion != b.GoVersion {
		diffs = append(diffs, fmt.Sprintf("go %s vs %s", a.GoVersion, b.GoVersion))
	}
	return strings.Join(diffs, "; ")
}

// saveReport writes the report to <out>/<workload>-<e2e|traced>.json. When
// a previous report of the same workload and mode is there and was measured
// on a different host, the new report says so: its timings do not compare.
func saveReport(cfg config, rep *report) error {
	if err := os.MkdirAll(cfg.Out, 0o755); err != nil {
		return err
	}
	mode := "e2e"
	if cfg.Trace {
		mode = "traced"
	}
	path := filepath.Join(cfg.Out, fmt.Sprintf("%s-%s.json", cfg.Workload, mode))
	if data, err := os.ReadFile(path); err == nil {
		var prev report
		if json.Unmarshal(data, &prev) == nil {
			if d := sameHost(prev.Host, rep.Host); d != "" {
				rep.HostMismatch = "previous result was measured on another host: " + d
				fmt.Fprintln(os.Stderr, "perfbench: warning:", rep.HostMismatch)
			}
		}
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
