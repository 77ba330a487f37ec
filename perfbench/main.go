// Command perfbench is the repository's benchmark: it runs the whole
// serving stack — store.DB, server and client over loopback TCP — in
// one process, drives one workload from a seeded generator, checks
// every response, and prints each metric by name and unit, ending with
// one JSON line. See README.md.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
)

// commit is stamped in by run.sh; "unknown" outside a git checkout.
var commit = "unknown"

func main() {
	wl := flag.String("workload", "", "workload: batch_read, ingest_durable or scan_hot_mmap")
	seed := flag.Uint64("seed", 1, "seed of every generated input")
	seconds := flag.Float64("seconds", 18, "measured time: a fifth open loop, a fifth serial closed loop, the rest pipelined closed loop")
	traceOn := flag.Int("trace", 0, "1: traced run, printing per-layer metrics instead")
	work := flag.String("dir", ".bench_build", "directory for scratch DBs and span files")
	repeat := flag.Int("repeat", 0, "run the workload this many times, seeds seed, seed+1, ..., and print each metric's quartiles")
	flag.Parse()

	w := findWorkload(*wl)
	if w == nil || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of batch_read, ingest_durable, scan_hot_mmap) and -seconds > 0\n")
		os.Exit(2)
	}
	fmt.Println(provenance())
	if *repeat > 0 {
		if err := repeatRuns(*repeat, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, setups: w.setups, work: *work}
	if *traceOn != 0 {
		t, err := newTracer(w.every)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		cfg.tracer, cfg.setups = t, 1
	}
	total0, steal0, haveTicks := cpuTicks()
	r, err := w.run(cfg)
	if r != nil {
		for _, l := range r.lines {
			fmt.Println(l)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r.lines = nil
	if total1, steal1, ok := cpuTicks(); ok && haveTicks && total1 > total0 {
		// Not a metric of the program: a high share means the figures
		// measure a contended host.
		r.printf("# host steal %.1f%% of CPU time during the run", 100*float64(steal1-steal0)/float64(total1-total0))
	}
	if t := cfg.tracer; t != nil {
		t.layerMetrics(r, w.primary)
		path := filepath.Join(*work, fmt.Sprintf("spans-%s-%d.jsonl", w.name, *seed))
		if err := t.writeSpans(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		r.printf("# %d spans written to %s", len(t.spans), path)
	}
	for _, l := range r.lines {
		fmt.Println(l)
	}
	out, err := json.Marshal(map[string]any{"correct": true, "attempted": r.attempted, "failed": r.failed, "metrics": r.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// provenance stamps an output with what produced it.
func provenance() string {
	return fmt.Sprintf("# %s GOMAXPROCS=%d nproc=%d kernel=%q commit=%s",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), kernel(), commit)
}

// repeatRuns runs this command k times with consecutive seeds and the
// same other flags, then prints every metric's median, quartiles and
// (Q3-Q1)/median: the spread the bounds in BENCHMARK.json are set
// against.
func repeatRuns(k int, seed uint64) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var args []string
	flag.Visit(func(f *flag.Flag) {
		if f.Name != "repeat" && f.Name != "seed" {
			args = append(args, "-"+f.Name+"="+f.Value.String())
		}
	})
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < k; i++ {
		s := seed + uint64(i)
		cmd := exec.Command(self, append(args, "-seed="+strconv.FormatUint(s, 10))...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		var res struct {
			Correct bool              `json:"correct"`
			Metrics map[string]metric `json:"metrics"`
		}
		if err := json.Unmarshal(lastLine(out), &res); err != nil || !res.Correct {
			return fmt.Errorf("seed %d: no result line (%v)", s, err)
		}
		var names []string
		for n, m := range res.Metrics {
			values[n] = append(values[n], m.Value)
			units[n] = m.Unit
			names = append(names, fmt.Sprintf("%s=%.6g", n, m.Value))
		}
		slices.Sort(names)
		fmt.Printf("seed %d: %v\n", s, names)
	}
	names := make([]string, 0, len(values))
	for n := range values {
		names = append(names, n)
	}
	slices.Sort(names)
	fmt.Printf("%-34s %-10s %12s %12s %12s %8s\n", "metric", "unit", "q1", "median", "q3", "spread")
	for _, n := range names {
		q1, med, q3 := quartiles(values[n])
		fmt.Printf("%-34s %-10s %12.6g %12.6g %12.6g %8.4f\n", n, units[n], q1, med, q3, (q3-q1)/med)
	}
	return nil
}

func lastLine(b []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = slices.Clone(sc.Bytes())
		}
	}
	return last
}
