// Package promtext emits the Prometheus text exposition format
// (text/plain; version=0.0.4): HELP/TYPE comments, counter and gauge
// samples, and native histograms as cumulative _bucket/_sum/_count
// series. Both metrics registries (the client pool's and the server
// transport's) render through it, so the two endpoints agree on format
// details a scraper is strict about — label escaping, bucket cumulation,
// the +Inf bucket, and the trailing newline per sample.
package promtext

import (
	"fmt"
	"io"
	"net/http"
	"strconv"

	"bsoap/internal/trace"
)

// ContentType is the exposition content type scrapers expect.
const ContentType = "text/plain; version=0.0.4"

// Writer accumulates exposition lines onto an io.Writer. Errors are
// sticky: after the first write error every method is a no-op and Err
// reports the failure.
type Writer struct {
	w   io.Writer
	err error
}

// Handler serves a registry's exposition — its WritePrometheus — as the
// /metrics endpoint a Prometheus scraper points at.
func Handler(write func(io.Writer) error) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", ContentType)
		if err := write(w); err != nil {
			http.Error(w, fmt.Sprintf("metrics: %v", err), http.StatusInternalServerError)
		}
	})
}

// New returns a Writer emitting to w.
func New(w io.Writer) *Writer { return &Writer{w: w} }

// Err returns the first write error, if any.
func (p *Writer) Err() error { return p.err }

func (p *Writer) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

// header emits the HELP and TYPE comment lines for a metric.
func (p *Writer) header(name, help, typ string) {
	p.printf("# HELP %s %s\n# TYPE %s %s\n", name, escapeHelp(help), name, typ)
}

// Counter emits one counter metric (name should end in _total by
// convention).
func (p *Writer) Counter(name, help string, value int64) {
	p.header(name, help, "counter")
	p.printf("%s %d\n", name, value)
}

// Gauge emits one gauge metric.
func (p *Writer) Gauge(name, help string, value int64) {
	p.header(name, help, "gauge")
	p.printf("%s %d\n", name, value)
}

// CounterWithLabel emits a counter family with one label across several
// values (e.g. errors_total{kind="dial"}).
func (p *Writer) CounterWithLabel(name, help, label string, values []LabeledValue) {
	p.header(name, help, "counter")
	for _, v := range values {
		p.printf("%s{%s=%q} %d\n", name, label, v.Label, v.Value)
	}
}

// Row declares one counter of a registry's table: the family it is
// exposed under ("": JSON only), the value of the family's one label if
// it has one, and the field of the snapshot S that holds its value (nil
// only in a row with no family). Help, the label key and Gauge are read
// from the first row of a family.
type Row[S any] struct {
	Family string
	Key    string // label key; a family's later rows leave it empty
	Label  string
	Help   string
	Gauge  bool
	Field  func(*S) *int64
}

// Rows writes a run of table rows, each with the value its field holds
// in s: a sample per row with a family, a HELP/TYPE header per run of
// rows sharing one.
func Rows[S any](p *Writer, rows []Row[S], s *S) {
	var head Row[S]
	for _, r := range rows {
		if r.Family == "" {
			continue
		}
		if r.Family != head.Family {
			head = r
			typ := "counter"
			if r.Gauge {
				typ = "gauge"
			}
			p.header(r.Family, r.Help, typ)
		}
		if head.Key == "" {
			p.printf("%s %d\n", r.Family, *r.Field(s))
		} else {
			p.printf("%s{%s=%q} %d\n", r.Family, head.Key, r.Label, *r.Field(s))
		}
	}
}

// LabeledValue is one sample of a labeled family.
type LabeledValue struct {
	Label string
	Value int64
}

// Histogram emits a native histogram: per-bucket cumulative counts with
// le upper bounds, the implicit +Inf bucket, _sum and _count. uppers[i]
// is bucket i's inclusive upper bound; counts[i] its (non-cumulative)
// observation count. sum is in the same unit as the bounds.
func (p *Writer) Histogram(name, help string, uppers []float64, counts []int64, sum float64, count int64) {
	p.header(name, help, "histogram")
	p.histogramSeries(name, "", uppers, counts, count, nil)
	p.printf("%s_sum %s\n", name, strconv.FormatFloat(sum, 'g', -1, 64))
	p.printf("%s_count %d\n", name, count)
}

// Exemplar is an OpenMetrics-style exemplar attached to a histogram
// bucket line: one label pair (typically a trace/span id) and the
// exemplified observation value.
type Exemplar struct {
	LabelKey   string
	LabelValue string
	Value      float64
}

// LabeledHistogram is one series of a label-partitioned histogram
// family (see HistogramWithLabel). Exemplar, when non-nil, is attached
// to the +Inf bucket line (the bucket every observation falls into).
type LabeledHistogram struct {
	Label    string
	Uppers   []float64
	Counts   []int64
	Sum      float64
	Count    int64
	Exemplar *Exemplar
}

// HistogramWithLabel emits a histogram family partitioned by one label
// (e.g. stage="serialize"): one HELP/TYPE header, then per series the
// cumulative buckets, +Inf, _sum and _count, each carrying the label.
func (p *Writer) HistogramWithLabel(name, help, label string, series []LabeledHistogram) {
	p.header(name, help, "histogram")
	for _, s := range series {
		pair := label + "=" + strconv.Quote(s.Label)
		p.histogramSeries(name, pair, s.Uppers, s.Counts, s.Count, s.Exemplar)
		p.printf("%s_sum{%s} %s\n", name, pair, strconv.FormatFloat(s.Sum, 'g', -1, 64))
		p.printf("%s_count{%s} %d\n", name, pair, s.Count)
	}
}

// StageSeconds renders the given stages of a StageHist as labeled
// histogram series in seconds, attaching each stage's most recent
// traced span as an exemplar. Both registries' stage families render
// through it (cold path: exposition only).
func StageSeconds(h *trace.StageHist, stages []trace.Stage) []LabeledHistogram {
	uppers := trace.StageBucketUppers()
	out := make([]LabeledHistogram, 0, len(stages))
	for _, st := range stages {
		counts := make([]int64, trace.StageBucketCount)
		d := h.Stage(st)
		lh := LabeledHistogram{
			Label:  st.String(),
			Uppers: uppers,
			Counts: counts,
			Count:  d.Buckets(counts),
			Sum:    float64(d.SumNs()) / 1e9,
		}
		if span, ns, ok := h.Exemplar(st); ok {
			lh.Exemplar = &Exemplar{
				LabelKey:   "span",
				LabelValue: strconv.FormatUint(span, 16),
				Value:      float64(ns) / 1e9,
			}
		}
		out = append(out, lh)
	}
	return out
}

// histogramSeries emits one series' bucket lines. pair is the extra
// label pair ("" for unlabeled); ex, when non-nil, rides the +Inf line.
func (p *Writer) histogramSeries(name, pair string, uppers []float64, counts []int64, count int64, ex *Exemplar) {
	sep := ""
	if pair != "" {
		sep = ","
	}
	var cum int64
	for i, ub := range uppers {
		cum += counts[i]
		p.printf("%s_bucket{%s%sle=%q} %d\n", name, pair, sep, formatBound(ub), cum)
	}
	if ex != nil {
		p.printf("%s_bucket{%s%sle=\"+Inf\"} %d # {%s=%q} %s\n",
			name, pair, sep, count, ex.LabelKey, ex.LabelValue,
			strconv.FormatFloat(ex.Value, 'g', -1, 64))
		return
	}
	p.printf("%s_bucket{%s%sle=\"+Inf\"} %d\n", name, pair, sep, count)
}

// formatBound renders a bucket boundary the way Prometheus does: shortest
// float representation.
func formatBound(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes backslashes and newlines per the format spec.
func escapeHelp(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			out = append(out, '\\', '\\')
		case '\n':
			out = append(out, '\\', 'n')
		default:
			out = append(out, s[i])
		}
	}
	return string(out)
}
