package serve

import (
	"bufio"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// HTTP-layer instrumentation: every route registered through instrument is
// wrapped with per-route request counters (labeled by status class),
// latency and response-size histograms, an in-flight gauge, request-ID
// propagation and a structured request log. Route labels are the explicit
// pattern strings passed at registration (never the raw URL path), so the
// label cardinality is fixed by the mux, not by clients.

// Metric names recorded by the HTTP middleware.
const (
	MetricHTTPRequests  = "http.requests"
	MetricHTTPInflight  = "http.inflight"
	MetricHTTPSeconds   = "http.request_seconds"
	MetricHTTPRespBytes = "http.response_bytes"
)

// statusRecorder captures the status code and body size written by a
// handler. WriteHeader-less handlers count as 200 on first Write.
type statusRecorder struct {
	http.ResponseWriter
	code  int
	bytes int
}

func (sr *statusRecorder) WriteHeader(code int) {
	if sr.code == 0 {
		sr.code = code
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(b []byte) (int, error) {
	if sr.code == 0 {
		sr.code = http.StatusOK
	}
	n, err := sr.ResponseWriter.Write(b)
	sr.bytes += n
	return n, err
}

// Flush passes streaming support through to the wrapped writer: handlers
// that probe `w.(http.Flusher)` (the progress stream) must still see it
// after instrumentation. Flushing headers implies a 200 like Write does.
func (sr *statusRecorder) Flush() {
	if f, ok := sr.ResponseWriter.(http.Flusher); ok {
		if sr.code == 0 {
			sr.code = http.StatusOK
		}
		f.Flush()
	}
}

// Hijack passes connection takeover through when the underlying writer
// supports it, so the recorder never silently downgrades an upgradable
// connection.
func (sr *statusRecorder) Hijack() (net.Conn, *bufio.ReadWriter, error) {
	if hj, ok := sr.ResponseWriter.(http.Hijacker); ok {
		return hj.Hijack()
	}
	return nil, nil, fmt.Errorf("serve: %w", http.ErrNotSupported)
}

// Unwrap exposes the underlying writer for http.ResponseController.
func (sr *statusRecorder) Unwrap() http.ResponseWriter {
	return sr.ResponseWriter
}

// reqSeq numbers generated request IDs within a process.
var reqSeq atomic.Uint64

// maxRequestIDLen bounds caller-supplied request IDs; the ID is echoed in
// a response header and every log line, so an unbounded or control-laden
// value is a log-injection and amplification vector.
const maxRequestIDLen = 128

// sanitizeRequestID truncates id to maxRequestIDLen bytes and drops
// control characters (including DEL). Returns "" if nothing survives.
func sanitizeRequestID(id string) string {
	if len(id) > maxRequestIDLen {
		id = id[:maxRequestIDLen]
	}
	clean := make([]byte, 0, len(id))
	for i := 0; i < len(id); i++ {
		if c := id[i]; c >= 0x20 && c != 0x7f {
			clean = append(clean, c)
		}
	}
	return string(clean)
}

// requestID returns the caller-supplied X-Request-Id (bounded and
// stripped of control characters), or mints a process-unique one
// ("r<boot-nanos-hex>-<seq>").
func (s *Server) requestID(r *http.Request) string {
	if id := sanitizeRequestID(r.Header.Get("X-Request-Id")); id != "" {
		return id
	}
	return s.bootID + "-" + strconv.FormatUint(reqSeq.Add(1), 10)
}

// statusClass buckets a status code into the conventional 1xx..5xx label.
func statusClass(code int) string {
	if code < 100 || code > 599 {
		return "other"
	}
	return fmt.Sprintf("%dxx", code/100)
}

// instrument wraps h with the middleware stack for the given route pattern.
// The pattern is used verbatim as the metric route label and in the request
// log; quiet routes (metrics, health probes) log at Debug so scrapers do
// not flood the log.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	quiet := route == "GET /metrics" || route == "GET /metrics.json" ||
		route == "GET /healthz" || route == "GET /readyz"
	hSeconds := s.reg.Histogram(obs.Labeled(MetricHTTPSeconds, "route", route))
	hBytes := s.reg.Histogram(obs.Labeled(MetricHTTPRespBytes, "route", route))
	return func(w http.ResponseWriter, r *http.Request) {
		id := s.requestID(r)
		// Echoed to the client and readable by handlers (job submission
		// stamps it into the job status) via the response headers.
		w.Header().Set("X-Request-Id", id)
		s.gInflight.Add(1)
		start := time.Now()
		sr := &statusRecorder{ResponseWriter: w}
		// The bookkeeping runs deferred so a panicking handler cannot
		// leak the in-flight gauge or skip the counters and request log.
		defer func() {
			panicked := recover()
			if panicked != nil && sr.code == 0 {
				// Headers not yet sent: the 500 still reaches the
				// client. After a mid-body panic the code already
				// written stands; the panic is recorded in the log.
				httpError(sr, http.StatusInternalServerError, CodeInternal, "internal error")
			}
			elapsed := time.Since(start)
			s.gInflight.Add(-1)
			if sr.code == 0 {
				sr.code = http.StatusOK
			}
			s.reg.Counter(obs.Labeled(MetricHTTPRequests, "code", statusClass(sr.code), "route", route)).Add(1)
			hSeconds.Observe(elapsed.Seconds())
			hBytes.Observe(float64(sr.bytes))
			level := slog.LevelInfo
			if quiet {
				level = slog.LevelDebug
			}
			if panicked != nil {
				level = slog.LevelError
			}
			attrs := []any{
				"request_id", id,
				"method", r.Method,
				"route", route,
				"path", r.URL.Path,
				"status", sr.code,
				"bytes", sr.bytes,
				"duration_ms", float64(elapsed.Microseconds()) / 1e3,
			}
			if panicked != nil {
				attrs = append(attrs, "panic", fmt.Sprint(panicked),
					"stack", string(debug.Stack()))
			}
			s.log.Log(r.Context(), level, "http request", attrs...)
		}()
		h(sr, r)
	}
}
