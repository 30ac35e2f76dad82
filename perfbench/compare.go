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

// benchSpec is the part of BENCHMARK.json the compare tool reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
	} `json:"per_layer"`
}

// compare reads two result sets (directories of perfbench result records)
// and prints, per workload and metric, each side's median and quartiles
// and a verdict for B against A:
//
//	better      B's median is better than A's by more than either side's spread
//	worse       B's median is worse by more than the metric's bound and the spread
//	same        the medians differ by less than the bound, which exceeds the spread
//	unresolved  the spread is as wide as the bound, so a regression cannot be ruled out
//
// Spread is the quartile distance over the median. Per-layer metrics get
// no verdict. The extras an untraced run records (latency percentiles,
// generator lateness, outage, fail fraction; all lower-is-better) are
// judged with a bound of 0: better or worse only beyond the spread,
// otherwise unresolved.
func compare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return errors.New("usage: perfbench compare [--bench BENCHMARK.json] <results-A> <results-B>")
	}
	raw, err := os.ReadFile(*benchPath)
	if err != nil {
		return err
	}
	var bs benchSpec
	if err := json.Unmarshal(raw, &bs); err != nil {
		return fmt.Errorf("%s: %w", *benchPath, err)
	}
	a, err := loadRecords(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := loadRecords(fs.Arg(1))
	if err != nil {
		return err
	}
	var workloads []string
	for w := range a {
		if _, ok := b[w]; ok {
			workloads = append(workloads, w)
		}
	}
	sort.Strings(workloads)
	if len(workloads) == 0 {
		return errors.New("the two result sets share no workload")
	}
	fmt.Printf("%-18s %-32s %5s %30s %30s %8s  %s\n", "workload", "metric", "runs",
		"A q1 / median / q3", "B q1 / median / q3", "change", "verdict")
	for _, w := range workloads {
		named := map[string]bool{}
		for _, m := range bs.EndToEnd {
			named[m.Name] = true
			row(w, m.Name, a[w], b[w], func(rel, spread float64) string {
				if m.Better == "higher" {
					rel = -rel
				}
				return verdict(rel, spread, m.Bound)
			})
		}
		for _, m := range bs.PerLayer {
			named[m.Name] = true
			row(w, m.Name, a[w], b[w], nil)
		}
		var extra []string
		for name := range a[w] {
			if !named[name] {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		for _, name := range extra {
			row(w, name, a[w], b[w], func(rel, spread float64) string { return verdict(rel, spread, 0) })
		}
	}
	return nil
}

// verdict judges a relative change rel (positive = worse) given the
// larger side's spread and the metric's bound.
func verdict(rel, spread, bound float64) string {
	switch {
	case rel > bound && rel > spread:
		return "worse"
	case -rel > spread:
		return "better"
	case spread >= bound:
		return "unresolved"
	default:
		return "same"
	}
}

func row(workload, name string, a, b map[string][]float64, judge func(rel, spread float64) string) {
	va, vb := a[name], b[name]
	if len(va) == 0 || len(vb) == 0 {
		return
	}
	a1, am, a3 := quartiles(va)
	b1, bm, b3 := quartiles(vb)
	var rel float64 // 0 when both medians are 0
	if am != 0 || bm != 0 {
		rel = (bm - am) / math.Abs(am)
	}
	v := "-"
	if judge != nil {
		v = judge(rel, math.Max(spreadOf(a1, am, a3), spreadOf(b1, bm, b3)))
	}
	fmt.Printf("%-18s %-32s %2d/%-2d %9.4g/%9.4g/%9.4g %9.4g/%9.4g/%9.4g %+7.1f%%  %s\n",
		workload, name, len(va), len(vb), a1, am, a3, b1, bm, b3, 100*rel, v)
}

func spreadOf(q1, med, q3 float64) float64 {
	if med == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(med)
}

// loadRecords returns workload → metric → values over a directory's
// correct result records.
func loadRecords(dir string) (map[string]map[string][]float64, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("%s: no result records", dir)
	}
	out := map[string]map[string][]float64{}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rec record
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if !rec.Summary.Correct {
			fmt.Fprintf(os.Stderr, "perfbench compare: %s failed its correctness check; skipped\n", p)
			continue
		}
		m := out[rec.Workload]
		if m == nil {
			m = map[string][]float64{}
			out[rec.Workload] = m
		}
		for k, v := range rec.Summary.Metrics {
			m[k] = append(m[k], v.Value)
		}
		for k, v := range rec.Extra {
			if _, dup := rec.Summary.Metrics[k]; !dup && rec.Trace == 0 {
				m[k] = append(m[k], v.Value)
			}
		}
	}
	return out, nil
}
