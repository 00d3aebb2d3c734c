package obs

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// ---- Prometheus text exposition ----

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(v string) string {
	return strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`).Replace(v)
}

func formatLabels(labels map[string]string, extra ...string) string {
	var pairs []string
	for k, v := range labels {
		pairs = append(pairs, fmt.Sprintf("%s=%q", k, escapeLabel(v)))
	}
	sort.Strings(pairs)
	for i := 0; i+1 < len(extra); i += 2 {
		pairs = append(pairs, fmt.Sprintf("%s=%q", extra[i], extra[i+1]))
	}
	if len(pairs) == 0 {
		return ""
	}
	return "{" + strings.Join(pairs, ",") + "}"
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func writeHeader(w io.Writer, name, help, kind string) {
	if help != "" {
		fmt.Fprintf(w, "# HELP %s %s\n", name, help)
	}
	fmt.Fprintf(w, "# TYPE %s %s\n", name, kind)
}

// WritePrometheus renders the snapshot in the Prometheus text
// exposition format (v0.0.4), deterministically ordered.
func (s *Snapshot) WritePrometheus(w io.Writer) error {
	seen := map[string]bool{}
	for _, p := range s.Counters {
		if !seen[p.Name] {
			writeHeader(w, p.Name, p.Help, "counter")
			seen[p.Name] = true
		}
		if _, err := fmt.Fprintf(w, "%s%s %s\n", p.Name, formatLabels(p.Labels), formatFloat(p.Value)); err != nil {
			return err
		}
	}
	for _, p := range s.Gauges {
		if !seen[p.Name] {
			writeHeader(w, p.Name, p.Help, "gauge")
			seen[p.Name] = true
		}
		if _, err := fmt.Fprintf(w, "%s%s %s\n", p.Name, formatLabels(p.Labels), formatFloat(p.Value)); err != nil {
			return err
		}
	}
	for _, h := range s.Histograms {
		if !seen[h.Name] {
			writeHeader(w, h.Name, h.Help, "histogram")
			seen[h.Name] = true
		}
		for _, b := range h.Buckets {
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
				h.Name, formatLabels(h.Labels, "le", formatFloat(b.UpperBound)), b.CumCount); err != nil {
				return err
			}
		}
		fmt.Fprintf(w, "%s_sum%s %s\n", h.Name, formatLabels(h.Labels), formatFloat(h.Sum))
		if _, err := fmt.Fprintf(w, "%s_count%s %d\n", h.Name, formatLabels(h.Labels), h.Count); err != nil {
			return err
		}
	}
	// Quantiles ride as derived gauge series (_p50/_p95/_p99) rather than
	// native summary quantile labels: the underlying data stays a
	// histogram; these are the bucket-upper-bound estimates callers get
	// from Histogram.Quantile. Emitted in a second pass so each derived
	// family's samples stay contiguous under its TYPE header.
	for _, suffix := range []string{"_p50", "_p95", "_p99"} {
		for _, h := range s.Histograms {
			qname := h.Name + suffix
			if !seen[qname] {
				writeHeader(w, qname, "", "gauge")
				seen[qname] = true
			}
			var v JSONFloat
			switch suffix {
			case "_p50":
				v = h.P50
			case "_p95":
				v = h.P95
			case "_p99":
				v = h.P99
			}
			if _, err := fmt.Fprintf(w, "%s%s %s\n", qname, formatLabels(h.Labels), formatFloat(float64(v))); err != nil {
				return err
			}
		}
	}
	return nil
}

// ---- JSON / CSV dumps ----

// JSONFloat is a float64 that survives encoding/json when non-finite:
// ±Inf and NaN are encoded as strings ("+Inf", "-Inf", "NaN"), finite
// values as plain numbers. Histogram quantiles need this because the
// overflow bucket's estimate is +Inf.
type JSONFloat float64

// MarshalJSON implements json.Marshaler.
func (f JSONFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	}
	return []byte(strconv.FormatFloat(v, 'g', -1, 64)), nil
}

// UnmarshalJSON implements json.Unmarshaler (inverse of MarshalJSON).
func (f *JSONFloat) UnmarshalJSON(data []byte) error {
	s := strings.Trim(string(data), `"`)
	switch s {
	case "+Inf", "Inf":
		*f = JSONFloat(math.Inf(1))
		return nil
	case "-Inf":
		*f = JSONFloat(math.Inf(-1))
		return nil
	case "NaN":
		*f = JSONFloat(math.NaN())
		return nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return err
	}
	*f = JSONFloat(v)
	return nil
}

// MarshalJSON renders the upper bound as a string because the overflow
// bucket's bound is +Inf, which encoding/json cannot represent as a
// number.
func (b Bucket) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf(`{"le":%q,"count":%d}`, formatFloat(b.UpperBound), b.CumCount)), nil
}

// UnmarshalJSON is the inverse of MarshalJSON.
func (b *Bucket) UnmarshalJSON(data []byte) error {
	var raw struct {
		LE    string `json:"le"`
		Count int64  `json:"count"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	if raw.LE == "+Inf" {
		b.UpperBound = math.Inf(1)
	} else {
		v, err := strconv.ParseFloat(raw.LE, 64)
		if err != nil {
			return err
		}
		b.UpperBound = v
	}
	b.CumCount = raw.Count
	return nil
}

// WriteJSON renders the snapshot as indented JSON.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteCSV renders the snapshot as flat CSV records
// (kind,name,labels,value,count,sum,mean) so obs dumps sit next to the
// internal/metrics per-round CSVs in a results directory and load with
// the same tooling. Histograms report exact count/sum/mean; bucket
// detail stays in the JSON/Prometheus forms.
func (s *Snapshot) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"kind", "name", "labels", "value", "count", "sum", "mean"}); err != nil {
		return err
	}
	flat := func(labels map[string]string) string {
		var pairs []string
		for k, v := range labels {
			pairs = append(pairs, k+"="+v)
		}
		sort.Strings(pairs)
		return strings.Join(pairs, ";")
	}
	for _, p := range s.Counters {
		if err := cw.Write([]string{"counter", p.Name, flat(p.Labels),
			formatFloat(p.Value), "", "", ""}); err != nil {
			return err
		}
	}
	for _, p := range s.Gauges {
		if err := cw.Write([]string{"gauge", p.Name, flat(p.Labels),
			formatFloat(p.Value), "", "", ""}); err != nil {
			return err
		}
	}
	for _, h := range s.Histograms {
		if err := cw.Write([]string{"histogram", h.Name, flat(h.Labels), "",
			strconv.FormatInt(h.Count, 10), formatFloat(h.Sum), formatFloat(h.Mean)}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Dump writes metrics.json, metrics.csv and metrics.prom snapshots of
// reg under dir (created if missing). Files are replaced atomically
// enough for tail -f style consumers (write temp, rename).
func Dump(reg *Registry, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	snap := reg.Snapshot()
	files := []struct {
		name  string
		write func(io.Writer) error
	}{
		{"metrics.json", snap.WriteJSON},
		{"metrics.csv", snap.WriteCSV},
		{"metrics.prom", snap.WritePrometheus},
	}
	for _, f := range files {
		tmp := filepath.Join(dir, "."+f.name+".tmp")
		out, err := os.Create(tmp)
		if err != nil {
			return err
		}
		err = f.write(out)
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			err = os.Rename(tmp, filepath.Join(dir, f.name))
		}
		if err != nil {
			os.Remove(tmp)
			return err
		}
	}
	return nil
}

// StartDump dumps reg under dir every interval until the returned stop
// function is called (which performs one final dump). Errors are
// reported through errf (nil discards them).
func StartDump(reg *Registry, dir string, every time.Duration, errf func(error)) (stop func()) {
	if errf == nil {
		errf = func(error) {}
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				if err := Dump(reg, dir); err != nil {
					errf(err)
				}
			case <-done:
				if err := Dump(reg, dir); err != nil {
					errf(err)
				}
				return
			}
		}
	}()
	var once bool
	return func() {
		if !once {
			once = true
			close(done)
			<-finished
		}
	}
}

// ---- HTTP exposition ----

// Handler serves reg over HTTP:
//
//	/metrics            Prometheus text format
//	/metrics.json       JSON snapshot (Snapshot schema)
//	/metrics.csv        flat CSV records
//	/trace.chrome.json  Chrome trace-event JSON from the registered
//	                    TraceSource (404 until one is set) — open in
//	                    Perfetto (ui.perfetto.dev) or chrome://tracing
//	/healthz            liveness probe ("ok")
//	/buildinfo          Go version, VCS revision, registry info map
//	/debug/pprof/       net/http/pprof profiles
func Handler(reg *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.Snapshot().WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = reg.Snapshot().WriteJSON(w)
	})
	mux.HandleFunc("/metrics.csv", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/csv")
		_ = reg.Snapshot().WriteCSV(w)
	})
	mux.HandleFunc("/trace.chrome.json", func(w http.ResponseWriter, _ *http.Request) {
		ts := reg.TraceSource()
		if ts == nil {
			http.Error(w, "no trace source registered", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = ts.WriteChromeTrace(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("/buildinfo", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(buildInfo(reg))
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// BuildInfo is the /buildinfo payload: toolchain + VCS identity of the
// running binary (via runtime/debug.ReadBuildInfo — the VCS fields are
// empty for `go run`/test binaries) plus the registry's static info map
// (config fingerprint, run mode, …).
type BuildInfo struct {
	GoVersion   string            `json:"go_version"`
	Module      string            `json:"module,omitempty"`
	VCSRevision string            `json:"vcs_revision,omitempty"`
	VCSTime     string            `json:"vcs_time,omitempty"`
	VCSModified bool              `json:"vcs_modified,omitempty"`
	Info        map[string]string `json:"info,omitempty"`
}

func buildInfo(reg *Registry) BuildInfo {
	out := BuildInfo{GoVersion: runtime.Version(), Info: reg.Info()}
	if bi, ok := debug.ReadBuildInfo(); ok {
		if bi.GoVersion != "" {
			out.GoVersion = bi.GoVersion
		}
		out.Module = bi.Main.Path
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				out.VCSRevision = s.Value
			case "vcs.time":
				out.VCSTime = s.Value
			case "vcs.modified":
				out.VCSModified = s.Value == "true"
			}
		}
	}
	return out
}

// HTTPServer is a running exposition endpoint.
type HTTPServer struct {
	ln  net.Listener
	srv *http.Server
}

// Addr returns the bound listen address (resolves ":0" ports).
func (s *HTTPServer) Addr() string { return s.ln.Addr().String() }

// Close shuts the endpoint down.
func (s *HTTPServer) Close() error { return s.srv.Close() }

// Serve starts Handler(reg) on addr (port 0 picks a free port) in a
// background goroutine and returns the bound server.
func Serve(addr string, reg *Registry) (*HTTPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: Handler(reg)}
	go func() { _ = srv.Serve(ln) }()
	return &HTTPServer{ln: ln, srv: srv}, nil
}
