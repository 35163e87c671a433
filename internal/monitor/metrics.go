package monitor

import (
	"fmt"
	"io"
	"strings"
	"time"

	"teeperf/internal/recorder"
)

// Metric is one exported Prometheus series: a metric name with metadata,
// an optional ordered label set, and the sample value. Every session the
// fleet agent serves — observed mappings and hosted in-process monitors
// alike — reports through this type and SessionMetrics, so there is one
// metric schema: sessions differ only in their `session` label value.
type Metric struct {
	Name, Help, Kind string
	Labels           []Label
	Value            float64
}

// Label is one key="value" pair of a metric's label set.
type Label struct{ Key, Value string }

// SessionLabel builds the canonical per-session label set.
func SessionLabel(session string) []Label {
	return []Label{{Key: "session", Value: session}}
}

// Series renders the metric's series identity (name plus label set) in
// Prometheus exposition syntax, e.g. `teeperf_log_fill_percent` or
// `teeperf_log_fill_percent{session="db"}`. It is also the /vars JSON key.
func (m Metric) Series() string {
	if len(m.Labels) == 0 {
		return m.Name
	}
	var b strings.Builder
	b.WriteString(m.Name)
	b.WriteByte('{')
	for i, l := range m.Labels {
		if i > 0 {
			b.WriteByte(',')
		}
		// %q escapes backslash, double quote and newline exactly as the
		// Prometheus text format requires.
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// WriteMetrics renders metrics in the Prometheus text exposition format.
// Series are grouped by metric name (first-appearance order) so the HELP
// and TYPE headers are emitted exactly once per name even when many
// sessions share it.
func WriteMetrics(w io.Writer, metrics []Metric) {
	order := make([]string, 0, len(metrics))
	groups := make(map[string][]Metric, len(metrics))
	for _, m := range metrics {
		if _, ok := groups[m.Name]; !ok {
			order = append(order, m.Name)
		}
		groups[m.Name] = append(groups[m.Name], m)
	}
	for _, name := range order {
		g := groups[name]
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, g[0].Help, name, g[0].Kind)
		for _, m := range g {
			fmt.Fprintf(w, "%s %g\n", m.Series(), m.Value)
		}
	}
}

// normPeriod maps the header's 0 ("unset") to the effective period 1, so
// the gauge always reports the weight actually applied to entries.
func normPeriod(p uint64) uint64 {
	if p == 0 {
		return 1
	}
	return p
}

// SessionMetrics builds the canonical per-session metric list from one
// sample — the schema every agent session (observed mapping or hosted
// monitor) exports, distinguished only by the `session` label value.
func SessionMetrics(session string, s Sample, openFrames, funcs int) []Metric {
	lbl := SessionLabel(session)
	out := []Metric{
		{"teeperf_entries_committed_total", "Committed log entries observed across all segments.", "counter", lbl, float64(s.Entries)},
		{"teeperf_entries_dropped_total", "Probe events lost to log overflow.", "counter", lbl, float64(s.Dropped)},
		{"teeperf_counter_ticks_total", "Software/TSC counter value.", "counter", lbl, float64(s.CounterTicks)},
		{"teeperf_log_fill_percent", "Active log segment fill level (0-100).", "gauge", lbl, s.FillPercent},
		{"teeperf_log_capacity_entries", "Active log segment capacity.", "gauge", lbl, float64(s.Capacity)},
		{"teeperf_log_rotations_total", "Completed log segment rotations.", "counter", lbl, float64(s.Rotations)},
		{"teeperf_entries_per_second", "Entry commit rate over the last sample window.", "gauge", lbl, s.EntriesPerSec},
		{"teeperf_counter_ticks_per_second", "Counter tick rate over the last sample window.", "gauge", lbl, s.TicksPerSec},
		{"teeperf_drops_per_second", "Drop rate over the last sample window.", "gauge", lbl, s.DropsPerSec},
		{"teeperf_run_duration_seconds", "Wall-clock run duration.", "gauge", lbl, s.Elapsed.Seconds()},
		{"teeperf_open_frames", "Calls currently in flight (entered, not yet returned).", "gauge", lbl, float64(openFrames)},
		{"teeperf_profile_functions", "Distinct functions in the live profile.", "gauge", lbl, float64(funcs)},
		{"teeperf_probe_sample_period", "Probe sampling period (1 = every call pair recorded).", "gauge", lbl, float64(normPeriod(s.SamplePeriod))},
		{"teeperf_probe_batch_size", "Per-thread slot reservation batch size.", "gauge", lbl, float64(s.BatchSize)},
		{"teeperf_probe_masked_total", "Probe events suppressed by sampling or deny masks.", "counter", lbl, float64(s.Masked)},
	}
	// Sharded logs additionally break fill and drops down per shard, so a
	// skewed thread distribution (one shard saturated, the rest idle) is
	// visible where the aggregate gauges would hide it.
	for i, sh := range s.Shards {
		slbl := append(SessionLabel(session), Label{Key: "shard", Value: fmt.Sprintf("%d", i)})
		out = append(out,
			Metric{"teeperf_shard_fill_percent", "Per-shard log segment fill level (0-100).", "gauge", slbl, sh.FillPercent},
			Metric{"teeperf_shard_dropped_total", "Probe events lost to overflow of this shard's segment.", "counter", slbl, float64(sh.Dropped)},
		)
	}
	return out
}

// CheckpointMetrics builds the per-session checkpoint gauges from the
// recorder's CheckpointStats — the crash-consistency health signals. Before
// the first successful pass the age gauge reports -1.
func CheckpointMetrics(session string, cs recorder.CheckpointStats, now time.Time) []Metric {
	lbl := SessionLabel(session)
	age := -1.0
	if !cs.LastSuccess.IsZero() {
		age = now.Sub(cs.LastSuccess).Seconds()
	}
	return []Metric{
		{"teeperf_checkpoint_passes_total", "Completed checkpoint passes (reached the atomic rename).", "counter", lbl, float64(cs.Passes)},
		{"teeperf_checkpoint_consecutive_failures", "Failed checkpoint passes since the last clean one.", "gauge", lbl, float64(cs.ConsecutiveFailures)},
		{"teeperf_checkpoint_bytes_written_total", "Bundle bytes written by completed checkpoint passes.", "counter", lbl, float64(cs.BytesWritten)},
		{"teeperf_checkpoint_last_success_age_seconds", "Seconds since the last successful checkpoint pass (-1 before the first).", "gauge", lbl, age},
	}
}
