// Package obs serves the operational HTTP surface shared by lmpd and
// embedding applications: Prometheus text exposition at /metrics, a
// typed JSON snapshot at /stats, recent trace spans at /spans, and the
// standard runtime profiles under /debug/pprof/. The listener is meant
// for an operations port, separate from the data-path TCP port.
package obs

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"github.com/lmp-project/lmp/internal/telemetry"
)

// Source supplies the endpoints' data; nil fields disable the matching
// endpoint with 404.
type Source struct {
	// Metrics backs GET /metrics (Prometheus text format). It is called
	// once per scrape, so the source can bring sampled gauges up to date.
	Metrics func() *telemetry.Registry
	// Stats backs GET /stats; the returned value is marshalled as JSON.
	// It should be one of the typed snapshot structs (core.PoolStats,
	// daemon.ServerStats), not an internal type.
	Stats func() any
	// Spans backs GET /spans: the retained trace spans, oldest first.
	Spans func() []telemetry.Span
}

// Handler builds the ops mux for src.
func Handler(src Source) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if src.Metrics == nil {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = telemetry.WritePrometheus(w, src.Metrics())
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		if src.Stats == nil {
			http.NotFound(w, r)
			return
		}
		writeJSON(w, src.Stats())
	})
	mux.HandleFunc("/spans", func(w http.ResponseWriter, r *http.Request) {
		if src.Spans == nil {
			http.NotFound(w, r)
			return
		}
		writeJSON(w, src.Spans())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// Server is a running ops listener.
type Server struct {
	ln   net.Listener
	http *http.Server
}

// Serve starts the ops surface on addr (":0" picks a port) and returns
// the running server; Addr reports where it bound.
func Serve(addr string, src Source) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		ln:   ln,
		http: &http.Server{Handler: Handler(src), ReadHeaderTimeout: 5 * time.Second},
	}
	go func() { _ = s.http.Serve(ln) }()
	return s, nil
}

// Addr reports the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener and open connections.
func (s *Server) Close() error { return s.http.Close() }
