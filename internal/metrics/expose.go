package metrics

import (
	"encoding/json"
	"io"
	"math"
	"strconv"
	"strings"
)

// PrometheusContentType is the Content-Type of WritePrometheus output.
const PrometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus renders the registry in the Prometheus text
// exposition format (families sorted by name, children by label set, a
// HELP and TYPE comment per family). Values read concurrently with
// writers are each individually consistent.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	for _, f := range r.snapshot() {
		b.Reset()
		if f.help != "" {
			b.WriteString("# HELP ")
			b.WriteString(f.name)
			b.WriteByte(' ')
			b.WriteString(strings.ReplaceAll(f.help, "\n", " "))
			b.WriteByte('\n')
		}
		b.WriteString("# TYPE ")
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(string(f.typ))
		b.WriteByte('\n')
		for i := range f.children {
			ch := &f.children[i]
			if f.typ == TypeHistogram {
				writeHistogram(&b, f.name, ch)
				continue
			}
			b.WriteString(f.name)
			b.WriteString(ch.labels)
			b.WriteByte(' ')
			b.WriteString(formatValue(ch.scalar()))
			b.WriteByte('\n')
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// writeHistogram renders one histogram child: cumulative _bucket series
// per upper bound (ending at +Inf), then _sum and _count.
func writeHistogram(b *strings.Builder, name string, ch *child) {
	if ch.h == nil {
		return
	}
	s := ch.h.Snapshot()
	var cum uint64
	for i := range s.Counts {
		cum += s.Counts[i]
		le := "+Inf"
		if i < len(s.Bounds) {
			le = formatValue(s.Bounds[i])
		}
		b.WriteString(name)
		b.WriteString(`_bucket`)
		b.WriteString(withLabel(ch.labels, `le="`+le+`"`))
		b.WriteByte(' ')
		b.WriteString(strconv.FormatUint(cum, 10))
		b.WriteByte('\n')
	}
	b.WriteString(name)
	b.WriteString("_sum")
	b.WriteString(ch.labels)
	b.WriteByte(' ')
	b.WriteString(formatValue(s.Sum))
	b.WriteByte('\n')
	b.WriteString(name)
	b.WriteString("_count")
	b.WriteString(ch.labels)
	b.WriteByte(' ')
	b.WriteString(strconv.FormatUint(s.Count, 10))
	b.WriteByte('\n')
}

// withLabel splices one extra rendered label pair into an existing
// {..} suffix (or makes one).
func withLabel(labels, extra string) string {
	if labels == "" {
		return "{" + extra + "}"
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}

// formatValue renders a sample value: integers without a decimal point,
// everything else in shortest-roundtrip form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// JSONMetric is one child in the /api/metricsz rendering.
type JSONMetric struct {
	Labels map[string]string `json:"labels,omitempty"`
	// Counter and gauge families.
	Value *float64 `json:"value,omitempty"`
	// Histogram families: per-bucket (non-cumulative) counts keyed by
	// upper bound ("+Inf" for the overflow bucket), plus sum and count.
	Buckets map[string]uint64 `json:"buckets,omitempty"`
	Sum     *float64          `json:"sum,omitempty"`
	Count   *uint64           `json:"count,omitempty"`
}

// JSONFamily is one family in the /api/metricsz rendering.
type JSONFamily struct {
	Name    string       `json:"name"`
	Type    Type         `json:"type"`
	Help    string       `json:"help,omitempty"`
	Metrics []JSONMetric `json:"metrics"`
}

// WriteJSON renders the registry as a JSON array of families (the
// expvar-style /api/metricsz view), sorted like WritePrometheus.
func (r *Registry) WriteJSON(w io.Writer) error {
	fams := r.snapshot()
	out := make([]JSONFamily, 0, len(fams))
	for _, f := range fams {
		jf := JSONFamily{Name: f.name, Type: f.typ, Help: f.help, Metrics: []JSONMetric{}}
		for i := range f.children {
			ch := &f.children[i]
			m := JSONMetric{Labels: parseLabels(ch.labels)}
			if f.typ == TypeHistogram {
				if ch.h == nil {
					continue
				}
				s := ch.h.Snapshot()
				m.Buckets = make(map[string]uint64, len(s.Counts))
				for i, c := range s.Counts {
					le := "+Inf"
					if i < len(s.Bounds) {
						le = formatValue(s.Bounds[i])
					}
					m.Buckets[le] = c
				}
				sum, count := s.Sum, s.Count
				m.Sum, m.Count = &sum, &count
			} else {
				v := ch.scalar()
				m.Value = &v
			}
			jf.Metrics = append(jf.Metrics, m)
		}
		out = append(out, jf)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// parseLabels recovers the key→value map from a rendered label suffix.
// Only used at exposition time, so the tiny parser beats storing a
// second representation on every child.
func parseLabels(rendered string) map[string]string {
	if rendered == "" {
		return nil
	}
	body := rendered[1 : len(rendered)-1]
	out := map[string]string{}
	for len(body) > 0 {
		eq := strings.Index(body, `="`)
		if eq < 0 {
			break
		}
		key := body[:eq]
		rest := body[eq+2:]
		var val strings.Builder
		i := 0
		for i < len(rest) {
			c := rest[i]
			if c == '\\' && i+1 < len(rest) {
				switch rest[i+1] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(rest[i+1])
				}
				i += 2
				continue
			}
			if c == '"' {
				break
			}
			val.WriteByte(c)
			i++
		}
		out[key] = val.String()
		body = rest[i:]
		body = strings.TrimPrefix(body, `"`)
		body = strings.TrimPrefix(body, `,`)
	}
	return out
}
