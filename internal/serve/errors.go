package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/obs"
)

// The /v1 error envelope. Every non-2xx response carries a structured
// error object with a stable machine-readable code:
//
//	{"error": {"code": "queue_full", "message": "..."}}

// Stable error codes. These are API surface: clients dispatch on them, so
// existing values never change meaning.
const (
	// CodeInvalidRequest: the request body failed validation (bad JSON,
	// schema mismatch, empty rows, out-of-range settings). HTTP 400.
	CodeInvalidRequest = "invalid_request"
	// CodeRequestTooLarge: the request body exceeded Config.MaxBodyBytes.
	// HTTP 413.
	CodeRequestTooLarge = "request_too_large"
	// CodeNotFound: no such job, model, or model version. HTTP 404.
	CodeNotFound = "not_found"
	// CodeModelNotReady: the job or model exists but has nothing servable
	// yet (job still training, model with no active version). HTTP 409.
	CodeModelNotReady = "model_not_ready"
	// CodeConflict: the request is valid but clashes with current state
	// (duplicate publish, trace export during a run). HTTP 409.
	CodeConflict = "conflict"
	// CodeQueueFull: the predict batching queue for the target model is
	// full; retry after the Retry-After delay. HTTP 429.
	CodeQueueFull = "queue_full"
	// CodeOverloaded: the server-wide predict admission limit was hit;
	// retry after the Retry-After delay. HTTP 503.
	CodeOverloaded = "overloaded"
	// CodeShuttingDown: the server is draining; retry against another
	// replica. HTTP 503.
	CodeShuttingDown = "shutting_down"
	// CodeInternal: an unexpected server-side failure. HTTP 500.
	CodeInternal = "internal"
)

// ErrorBody is the structured error object inside the envelope.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// ErrorEnvelope is the body of every non-2xx /v1 response.
type ErrorEnvelope struct {
	Error ErrorBody `json:"error"`
}

// httpError writes the error envelope. code is one of the Code constants
// above; status is the HTTP status it rides on.
func httpError(w http.ResponseWriter, status int, code string, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	w.Header().Set("Content-Type", obs.ContentTypeJSON)
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(ErrorEnvelope{Error: ErrorBody{Code: code, Message: msg}})
}

// retryAfter stamps the Retry-After header (seconds) on a backpressure
// response. Must run before the status is written.
func retryAfter(w http.ResponseWriter, seconds int) {
	w.Header().Set("Retry-After", strconv.Itoa(seconds))
}
