package server

// The one error envelope every /v1/* handler speaks:
//
//	{"error": {"code": "...", "message": "...", "retry_after_ms": N}}
//
// replacing the ad-hoc shapes earlier releases used (bare
// {"kind","error"} bodies, free-form 503 payloads). retry_after_ms is
// present only on backpressure rejections and mirrors the Retry-After
// header (which stays, for clients that only read headers).

import (
	"errors"
	"net/http"
	"strconv"
	"time"

	"repro/internal/core"
)

// Error codes carried in the envelope.
const (
	codeInvalidArgument = "invalid_argument"
	codeBadRequest      = "bad_request"
	codeNotFound        = "not_found"
	codeEvicted         = "evicted"
	codeTooLarge        = "too_large"
	codeQueueFull       = "queue_full"
	codeShuttingDown    = "shutting_down"
	codeInternal        = "internal"
)

// apiError is the inner error object.
type apiError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// RetryAfterMs quotes how long to back off (queue_full only).
	RetryAfterMs int64 `json:"retry_after_ms,omitempty"`
}

// errorEnvelope is the wire shape of every non-2xx /v1 response body.
type errorEnvelope struct {
	Error apiError `json:"error"`
}

// writeAPIError emits the envelope. A positive retryAfter additionally
// sets the Retry-After header (whole seconds, rounded up, minimum 1).
func writeAPIError(w http.ResponseWriter, status int, code, message string, retryAfter time.Duration) {
	env := errorEnvelope{Error: apiError{Code: code, Message: message}}
	if retryAfter > 0 {
		env.Error.RetryAfterMs = retryAfter.Milliseconds()
		secs := int64((retryAfter + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	writeJSON(w, status, env)
}

// writeError maps a Go error onto the envelope, inferring the code from
// the status and the engine's invalid-argument sentinel.
func writeError(w http.ResponseWriter, status int, err error) {
	code := codeInternal
	switch {
	case errors.Is(err, core.ErrInvalidArgument):
		code = codeInvalidArgument
	case status == http.StatusBadRequest:
		code = codeBadRequest
	case status == http.StatusNotFound:
		code = codeNotFound
	case status == http.StatusRequestEntityTooLarge:
		code = codeTooLarge
	case status == http.StatusServiceUnavailable:
		code = codeShuttingDown
	}
	writeAPIError(w, status, code, err.Error(), 0)
}
