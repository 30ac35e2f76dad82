// Command perfbench is the repository's benchmark of the live runtime. It
// builds 3-replica clusters through the public constructors, drives one of
// four seeded open-loop workloads, checks the results for linearizability
// and replica agreement, and prints the workload's metrics.
//
//	perfbench --workload write-wal-tcp --seed 1 --seconds 10 --trace 0
//	perfbench compare <results-dir-A> <results-dir-B>
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end ones of an untraced run; with --trace 1 they are the
// per-layer metrics of a traced run, plus trace.overhead_frac against an
// untraced run of the same inputs. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// units maps every metric the benchmark reports to its unit.
var units = map[string]string{
	"setup_s": "s", "write_p50_ms": "ms", "write_p90_ms": "ms", "write_p99_ms": "ms",
	"read_p50_ms": "ms", "read_p90_ms": "ms", "read_p99_ms": "ms", "cpu_us_per_op": "us",
	"alloc_bytes_per_op": "B", "heap_peak_mb": "MB",

	"fail_frac": "ratio", "loadgen.late_p50_ms": "ms", "loadgen.late_p99_ms": "ms", "loadgen.late_max_ms": "ms", "loadgen.inflight_max": "count",
	"engine.busy_us_per_op": "us", "engine.call_p99_us": "us", "engine.calls_per_op": "count",
	"engine.submit_batch_mean": "count", "engine.msgs_per_op": "count",
	"engine.appended_entries_per_op": "count", "engine.elections": "count",
	"engine.leader_changes": "count", "engine.follower_lag_p99": "entries",
	"cluster.queue_p50_us": "us", "cluster.queue_p99_us": "us",
	"cluster.persist_p50_us": "us", "cluster.persist_p99_us": "us",
	"cluster.commit_p50_us": "us", "cluster.commit_p99_us": "us",
	"cluster.reply_p50_us": "us", "cluster.reply_p99_us": "us",
	"cluster.read_serve_p50_us": "us",
	"storage.append_us_per_op":  "us", "storage.sync_us_per_op": "us",
	"storage.sync_p50_us": "us", "storage.sync_p99_us": "us", "storage.syncs_per_op": "count",
	"storage.entries_per_sync": "count", "storage.snapshot_ms_p50": "ms",
	"storage.snapshot_ms_max": "ms", "storage.snapshots": "count", "storage.open_ms": "ms",
	"transport.send_us_per_op": "us", "transport.deliver_us_per_op": "us",
	"transport.frames_per_op": "count", "transport.wire_bytes_per_op": "B",
	"transport.raw_bytes_per_op": "B", "transport.encode_us_per_op": "us",
	"transport.dropped_frames":   "count",
	"kvstore.apply_ns_per_entry": "ns", "kvstore.snapshot_ms": "ms",
	"kvstore.restore_ms": "ms", "kvstore.snapshot_bytes": "B",
	"lease.local_read_frac": "ratio",
	"recovery.catchup_ms":   "ms", "recovery.snapshot_installs": "count", "recovery.unavail_ms": "ms",
	"trace.overhead_frac": "ratio",
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the full result of one invocation, kept for the compare tool:
// the summary plus what identifies the inputs.
type record struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Trace      int               `json:"trace"`
	OpsHash    string            `json:"ops_hash"`
	Rate       float64           `json:"rate"`
	Refused    int64             `json:"refused"`
	FailFrac   float64           `json:"fail_frac"`
	Violations []string          `json:"violations"`
	Errors     map[string]int    `json:"errors,omitempty"` // failed requests by error
	Summary    summary           `json:"summary"`
	Extra      map[string]metric `json:"extra,omitempty"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compare(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(2)
		}
		return
	}
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Int64("seed", 1, "workload seed: the op stream is a function of it alone")
		seconds = flag.Float64("seconds", 10, "length of the measured window")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		rate    = flag.Float64("rate", 0, "override the workload's arrival rate in ops/s (rate sweeps; 0 = the fixed rate)")
		outDir  = flag.String("results", filepath.Join(".bench_build", "results"), "directory for per-run result records")
	)
	flag.Parse()
	s, err := findSpec(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds > 0, --trace 0|1\n", specNames())
		os.Exit(2)
	}
	if *rate > 0 {
		s.rate = *rate
	}
	rec, err := run(s, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := saveRecord(*outDir, rec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: saving result:", err)
	}
	fmt.Printf("perfbench: workload=%s seed=%d ops_hash=%s rate=%g attempted=%d failed=%d refused=%d\n",
		rec.Workload, rec.Seed, rec.OpsHash, rec.Rate, rec.Summary.Attempted, rec.Summary.Failed, rec.Refused)
	for _, v := range rec.Violations {
		fmt.Println("perfbench: VIOLATION:", v)
	}
	for e, n := range rec.Errors {
		fmt.Printf("perfbench: %d requests failed: %s\n", n, e)
	}
	printMetrics("", rec.Summary.Metrics)
	printMetrics("extra ", rec.Extra)
	line, _ := json.Marshal(rec.Summary) // plain data, cannot fail
	fmt.Println(string(line))
	if !rec.Summary.Correct {
		os.Exit(1)
	}
}

func specNames() string {
	var n []string
	for _, s := range specs {
		n = append(n, s.name)
	}
	return strings.Join(n, ", ")
}

func printMetrics(prefix string, m map[string]metric) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("perfbench: %s%-32s %14.4f %s\n", prefix, k, m[k].Value, m[k].Unit)
	}
}

func withUnits(vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(vals))
	for k, v := range vals {
		out[k] = metric{Value: v, Unit: units[k]}
	}
	return out
}

// run performs one invocation: an untraced run for end-to-end metrics, or
// an untraced then a traced run of the same inputs for per-layer ones.
// Every run is checked; the data directories are removed afterwards.
func run(s spec, seed int64, seconds float64, traced bool) (*record, error) {
	st := genStream(s, seed, seconds)
	if len(st.window) == 0 {
		return nil, fmt.Errorf("a %gs window at %g ops/s holds no requests", seconds, s.rate)
	}
	root := filepath.Join(".bench_build", fmt.Sprintf("data-%d", os.Getpid()))
	defer os.RemoveAll(root)
	rec := &record{
		Workload: s.name, Seed: seed, Seconds: seconds, OpsHash: st.hash(), Rate: s.rate,
	}
	setups := 3
	if traced {
		rec.Trace = 1
		setups = 1
	}
	base, err := runOnce(s, st, filepath.Join(root, "plain"), false, setups)
	if err != nil {
		return nil, err
	}
	e2e := endToEnd(base)
	extra := extras(st, base.w)
	res := base
	vals := e2e
	if traced {
		if res, err = runOnce(s, st, filepath.Join(root, "traced"), true, 1); err != nil {
			return nil, err
		}
		vals = res.traced
		vals["trace.overhead_frac"] = endToEnd(res)["cpu_us_per_op"]/e2e["cpu_us_per_op"] - 1
		for k, v := range e2e {
			extra[k] = v // the untraced run's gated metrics, for reference
		}
		rec.Violations = append(rec.Violations, base.violations...)
	}
	rec.Extra = withUnits(extra)
	rec.Violations = append(rec.Violations, res.violations...)
	failed := failures(res.w)
	for _, r := range res.w.res {
		if r.err != nil {
			if rec.Errors == nil {
				rec.Errors = map[string]int{}
			}
			rec.Errors[r.err.Error()]++
		}
	}
	rec.Refused = res.w.refused
	rec.FailFrac = float64(failed) / float64(len(res.w.res))
	rec.Summary = summary{
		Correct:   len(rec.Violations) == 0,
		Attempted: len(res.w.res),
		Failed:    failed,
		Metrics:   withUnits(vals),
	}
	return rec, nil
}

func saveRecord(dir string, rec *record) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", rec.Workload, rec.Seed, rec.Trace)
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}
