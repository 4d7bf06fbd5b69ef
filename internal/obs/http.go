package obs

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
)

// Handler returns an http.Handler exposing the registry, the flight
// recorder and the runtime profilers:
//
//	/metrics              Prometheus text format
//	/metrics.json         JSON snapshot (Registry.Snapshot)
//	/debug/trace          Chrome trace-event JSON (open in Perfetto)
//	/debug/trace/autopsy  the slow-batch autopsy text report
//	/debug/pprof/*        net/http/pprof (heap, goroutine, CPU profile, trace, ...)
func Handler(r *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		b, err := json.MarshalIndent(r.Snapshot(), "", "  ")
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		_, _ = w.Write(b)
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", `attachment; filename="lsgraph-trace.json"`)
		if err := WriteChrome(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/trace/autopsy", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if err := WriteAutopsy(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve enables collection and serves Handler(Default) on addr (e.g.
// ":6060"). It blocks; run it in a goroutine:
//
//	go func() { log.Fatal(obs.Serve(*metricsAddr)) }()
func Serve(addr string) error {
	SetEnabled(true)
	return http.ListenAndServe(addr, Handler(Default))
}
