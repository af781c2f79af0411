package metrics

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// Serve writes s in the exposition format a metrics route's ?format=
// names: "prom" (the default) for the Prometheus text format, "json"
// for JSON. Any other format writes nothing and returns the error the
// route answers with; a failed write is the departed client's to
// notice, not the caller's.
func Serve(w http.ResponseWriter, format string, s Snapshot) error {
	switch format {
	case "", "prom":
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WritePrometheus(w, s)
	case "json":
		w.Header().Set("Content-Type", "application/json")
		WriteJSON(w, s)
	default:
		return errors.New("?format= must be prom or json")
	}
	return nil
}

// WriteJSON serializes a snapshot as indented JSON.
func WriteJSON(w io.Writer, s Snapshot) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WritePrometheus serializes a snapshot in the Prometheus text
// exposition format (version 0.0.4). Histograms are exposed as the
// summary type: the P² engine yields streaming quantile estimates, not
// cumulative buckets, and summary is the format's native shape for
// pre-computed quantiles.
func WritePrometheus(w io.Writer, s Snapshot) error {
	for _, f := range s.Families {
		promType := "untyped"
		switch f.Kind {
		case KindCounter:
			promType = "counter"
		case KindGauge:
			promType = "gauge"
		case KindHistogram:
			promType = "summary"
		}
		if f.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.Name, escapeHelp(f.Help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.Name, promType); err != nil {
			return err
		}
		for _, m := range f.Metrics {
			if f.Kind == KindHistogram && m.Hist != nil {
				if err := writePromSummary(w, f.Name, m); err != nil {
					return err
				}
				continue
			}
			if _, err := fmt.Fprintf(w, "%s%s %s\n",
				f.Name, promLabels(m.Labels), promFloat(m.Value)); err != nil {
				return err
			}
		}
	}
	return nil
}

func writePromSummary(w io.Writer, name string, m Metric) error {
	h := m.Hist
	for _, q := range [...]struct {
		p string
		v float64
	}{{"0.5", h.P50}, {"0.9", h.P90}, {"0.99", h.P99}} {
		ls := append(append([]Label(nil), m.Labels...), Label{Name: "quantile", Value: q.p})
		if _, err := fmt.Fprintf(w, "%s%s %s\n", name, promLabels(ls), promFloat(q.v)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, promLabels(m.Labels), promFloat(h.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, promLabels(m.Labels), h.Count)
	return err
}

func promLabels(ls []Label) string {
	if len(ls) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// The exposition format's two escapings, built once: a Replacer compiles
// its lookup tables on first use.
var (
	labelEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
	helpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
)

func escapeLabel(s string) string { return labelEscaper.Replace(s) }

func escapeHelp(s string) string { return helpEscaper.Replace(s) }
