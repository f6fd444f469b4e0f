package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Tracing from outside the program. The client stamps every call with an
// X-Trace-Id header; a wrapper around Server.ServeHTTP records the
// server's span under that ID, and a wrapper around each caller's HTTP
// transport remembers the ID of the call it just made. Replays of single
// layers add spans of their own. Spans stay in memory and are written out
// when the run ends.

// span is one timed interval of one layer. Spans of one client call
// share its trace ID.
type span struct {
	Trace  string        `json:"trace,omitempty"`
	Layer  string        `json:"layer"`
	Name   string        `json:"name"`
	Start  time.Time     `json:"start"`
	Dur    time.Duration `json:"dur_ns"`
	Status int           `json:"status,omitempty"`
}

// recorder collects spans. Recording can be switched off, so a traced run
// can also measure itself untraced and report the overhead.
type recorder struct {
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
	// server holds the first ServeHTTP span of each trace ID on each
	// route: a replica's artifact fetch reuses the trace ID of the release
	// that made the artifact.
	server map[string]span
}

func newRecorder() *recorder {
	r := &recorder{server: make(map[string]span)}
	r.on.Store(true)
	return r
}

func (r *recorder) add(s span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	if s.Layer == "server" && s.Trace != "" {
		if _, dup := r.server[s.Trace+" "+s.Name]; !dup {
			r.server[s.Trace+" "+s.Name] = s
		}
	}
	r.mu.Unlock()
}

// serverSpan returns the ServeHTTP span recorded for a trace ID on a
// route.
func (r *recorder) serverSpan(trace, route string) (span, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.server[trace+" "+route]
	return s, ok
}

// wrap returns h timed per request: the span is named after the route and
// keyed by the request's X-Trace-Id.
func (r *recorder) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !r.on.Load() {
			h.ServeHTTP(w, req)
			return
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h.ServeHTTP(sw, req)
		r.add(span{
			Trace:  req.Header.Get("X-Trace-Id"),
			Layer:  "server",
			Name:   routeOf(req.Method, req.URL.Path),
			Start:  start,
			Dur:    time.Since(start),
			Status: sw.status,
		})
	})
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// routeOf names the privtreed route a request addresses.
func routeOf(method, path string) string {
	parts := strings.Split(strings.Trim(path, "/"), "/")
	switch {
	case len(parts) >= 2 && parts[0] == "v1" && parts[1] == "repl":
		return "repl"
	case len(parts) == 2 && parts[1] == "datasets":
		if method == http.MethodPost {
			return "register"
		}
		return "list_datasets"
	case len(parts) == 3 && parts[1] == "datasets":
		return "get_dataset"
	case len(parts) == 4 && parts[3] == "ingest":
		return "ingest"
	case len(parts) == 4 && parts[3] == "releases":
		return "create_release"
	case len(parts) == 4:
		return parts[3]
	case len(parts) == 5:
		return "get_release"
	case len(parts) == 6 && parts[5] == "query":
		return "query"
	}
	return strings.Join(parts, "_")
}

// lastTrace is an HTTP transport that remembers the X-Trace-Id of the
// last request it carried. Each caller owns one, so after a client call
// returns, its ID identifies that call's server span.
type lastTrace struct {
	base http.RoundTripper
	id   atomic.Value // string
}

func (t *lastTrace) RoundTrip(req *http.Request) (*http.Response, error) {
	t.id.Store(req.Header.Get("X-Trace-Id"))
	return t.base.RoundTrip(req)
}

func (t *lastTrace) last() string {
	s, _ := t.id.Load().(string)
	return s
}

// writeSpans writes every span as one JSON line to path.
func (r *recorder) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
