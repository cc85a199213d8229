package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
)

// SnapshotSchemaVersion is the /statusz JSON schema token; bump on any
// incompatible change.
const SnapshotSchemaVersion = 1

// WritePrometheus renders the registry in the Prometheus text
// exposition format (version 0.0.4). Output is deterministic for a
// fixed metric state: metrics sort by (name, labels), HELP/TYPE lines
// are emitted once per name group, and histograms render the
// cumulative _bucket/_sum/_count form.
func (r *Registry) WritePrometheus(w io.Writer) error {
	ms, help := r.sorted()
	var b strings.Builder
	lastName := ""
	for _, m := range ms {
		if m.name != lastName {
			if h := help[m.name]; h != "" {
				fmt.Fprintf(&b, "# HELP %s %s\n", m.name, h)
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", m.name, m.kind)
			lastName = m.name
		}
		switch m.kind {
		case kindCounter:
			writeSample(&b, m.name, m.labels, "", float64(m.counter.Value()))
		case kindGauge:
			writeSample(&b, m.name, m.labels, "", float64(m.gauge.Value()))
		case kindGaugeFunc:
			writeSample(&b, m.name, m.labels, "", m.gaugeValue())
		case kindHistogram:
			writeHistogram(&b, m)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeSample emits one `name{labels,extra} value` line.
func writeSample(b *strings.Builder, name, labels, extra string, v float64) {
	b.WriteString(name)
	if labels != "" || extra != "" {
		b.WriteByte('{')
		b.WriteString(labels)
		if labels != "" && extra != "" {
			b.WriteByte(',')
		}
		b.WriteString(extra)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatValue(v))
	b.WriteByte('\n')
}

func writeHistogram(b *strings.Builder, m *metric) {
	h := m.hist
	var cum int64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		writeSample(b, m.name+"_bucket", m.labels, `le="`+formatValue(bound)+`"`, float64(cum))
	}
	cum += h.counts[len(h.bounds)].Load()
	writeSample(b, m.name+"_bucket", m.labels, `le="+Inf"`, float64(cum))
	writeSample(b, m.name+"_sum", m.labels, "", h.Sum())
	writeSample(b, m.name+"_count", m.labels, "", float64(cum))
}

// formatValue renders a float in the canonical exposition form:
// integers without a fractional part, everything else via the shortest
// round-trip representation.
func formatValue(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// SnapshotMetric is one metric in the JSON snapshot.
type SnapshotMetric struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Kind   string            `json:"kind"`

	// Counter / gauge value (kind "counter" or "gauge").
	Value *float64 `json:"value,omitempty"`

	// Histogram fields (kind "histogram"). Buckets holds the
	// per-bucket (non-cumulative) counts; Bounds the upper edges, with
	// the final +Inf bucket implied.
	Bounds  []float64 `json:"bounds,omitempty"`
	Buckets []int64   `json:"buckets,omitempty"`
	Sum     *float64  `json:"sum,omitempty"`
	Count   *int64    `json:"count,omitempty"`
}

// Snapshot is the /statusz JSON document.
type Snapshot struct {
	SchemaVersion int              `json:"schema_version"`
	Metrics       []SnapshotMetric `json:"metrics"`
}

// Snapshot captures every registered metric in deterministic order.
func (r *Registry) Snapshot() Snapshot {
	ms, _ := r.sorted()
	out := Snapshot{SchemaVersion: SnapshotSchemaVersion, Metrics: make([]SnapshotMetric, 0, len(ms))}
	for _, m := range ms {
		sm := SnapshotMetric{Name: m.name, Kind: m.kind.String(), Labels: maps.Clone(m.labelSet)}
		switch m.kind {
		case kindCounter:
			v := float64(m.counter.Value())
			sm.Value = &v
		case kindGauge:
			v := float64(m.gauge.Value())
			sm.Value = &v
		case kindGaugeFunc:
			v := m.gaugeValue()
			sm.Value = &v
		case kindHistogram:
			h := m.hist
			sm.Bounds = h.Bounds()
			sm.Buckets = make([]int64, len(h.counts))
			var count int64
			for i := range h.counts {
				sm.Buckets[i] = h.counts[i].Load()
				count += sm.Buckets[i]
			}
			sum := h.Sum()
			sm.Sum = &sum
			sm.Count = &count
		}
		out.Metrics = append(out.Metrics, sm)
	}
	return out
}

// Handler serves the Prometheus text exposition.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// StatuszHandler serves the JSON snapshot.
func StatuszHandler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(r.Snapshot())
	})
}

// Mount registers the observability endpoints on mux: /metrics
// (Prometheus text) and /statusz (JSON snapshot), plus the
// /debug/pprof/ suite when withPprof is set. pprof is opt-in because
// it exposes goroutine stacks and heap contents — fine on a loopback
// debug port, not something to ship on by default.
func Mount(mux *http.ServeMux, r *Registry, withPprof bool) {
	mux.Handle("/metrics", Handler(r))
	mux.Handle("/statusz", StatuszHandler(r))
	if withPprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
}
