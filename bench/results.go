package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"sort"
)

// value is one reported number with its unit.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runRecord is the outcome of one benchmark run: one workload, one seed,
// tracing either off (end-to-end metrics) or on (per-layer metrics).
type runRecord struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Trace     bool             `json:"trace"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	// Notes name what went wrong or was left out: failed children,
	// digest mismatches, metrics omitted on a one-core host, a capped
	// bandwidth probe.
	Notes []string `json:"notes,omitempty"`
}

func (r *runRecord) set(defs []metricDef, name string, v float64) {
	d, ok := findMetric(defs, name)
	if !ok {
		panic("bench: metric " + name + " is not declared in metrics.go")
	}
	r.Metrics[name] = value{Value: v, Unit: d.Unit}
}

func (r *runRecord) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// fail counts one failed operation and names it.
func (r *runRecord) fail(format string, args ...any) {
	r.Failed++
	r.note("FAILED: "+format, args...)
}

// absorb folds the record of a sub-run made on behalf of one probe into r:
// the probe stays one attempt of the traced pass, the sub-run's notes are
// kept, and any failure in it becomes the probe's error.
func (r *runRecord) absorb(sub *runRecord, what string) error {
	r.Notes = append(r.Notes, sub.Notes...)
	if sub.Failed > 0 {
		return fmt.Errorf("%d of %d %s failed", sub.Failed, sub.Attempted, what)
	}
	return nil
}

// failedFrac is failed / attempted.
func (r *runRecord) failedFrac() float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// print lists every metric as "name value unit", in declaration order,
// followed by the failure count and the notes.
func (r *runRecord) print(w io.Writer, defs []metricDef) {
	for _, d := range defs {
		if v, ok := r.Metrics[d.Name]; ok {
			fmt.Fprintf(w, "%-32s %14.6g %s\n", d.Name, v.Value, v.Unit)
		}
	}
	fmt.Fprintf(w, "%-32s %14.6g frac (%d of %d)\n", "failed_frac", r.failedFrac(), r.Failed, r.Attempted)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
}

// contractLine is the one-object summary the driver reads from the last
// line of standard output.
func (r *runRecord) contractLine() string {
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(b)
}

// resultsFile is what -out accumulates and -compare reads: the host line
// plus one record per run.
type resultsFile struct {
	Host hostInfo    `json:"host"`
	Runs []runRecord `json:"runs"`
}

func readResults(path string) (*resultsFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &f, nil
}

// appendResults adds records to the results file at path, creating it
// with this host's line if it does not exist yet.
func appendResults(path string, host hostInfo, recs ...runRecord) error {
	f, err := readResults(path)
	if errors.Is(err, fs.ErrNotExist) {
		f = &resultsFile{Host: host}
	} else if err != nil {
		return err
	}
	f.Runs = append(f.Runs, recs...)
	raw, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// series collects, per workload and end-to-end metric, the values of all
// untraced runs in a results file.
func (f *resultsFile) series() map[string]map[string][]float64 {
	out := make(map[string]map[string][]float64)
	for _, r := range f.Runs {
		if r.Trace {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = make(map[string][]float64)
		}
		for name, v := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], v.Value)
		}
		out[r.Workload]["failed_frac"] = append(out[r.Workload]["failed_frac"], r.failedFrac())
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
