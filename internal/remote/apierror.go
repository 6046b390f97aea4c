package remote

// The API error envelope: every /api/v1/* endpoint answers failures
// with one JSON shape instead of ad-hoc plain-text bodies, so clients
// parse a single contract —
//
//	{"error": "...", "hint": "...", "offset": N}
//
// error is the complete human-readable message (what http.Error used
// to carry), hint an optional actionable suggestion ("did you mean
// CYCLES?", "pass step=, e.g. step=10"), and offset the byte
// position in a query expression when the failure is a parse or
// validation error. Handlers across internal/store, internal/query and
// the daemons share these writers, which is what keeps the envelope
// consistent.

import (
	"encoding/json"
	"net/http"
)

// APIError is the JSON error envelope of the HTTP API.
type APIError struct {
	Message string `json:"error"`
	Hint    string `json:"hint,omitempty"`
	// Offset is a byte offset into the request's query expression; a
	// pointer so position 0 still serializes.
	Offset *int `json:"offset,omitempty"`
}

// Error makes the envelope usable as a client-side error value.
func (e *APIError) Error() string { return e.Message }

// WriteAPIError writes the envelope with the given status.
func WriteAPIError(w http.ResponseWriter, status int, e APIError) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(e)
}

// WriteError writes a bare-message envelope.
func WriteError(w http.ResponseWriter, status int, msg string) {
	WriteAPIError(w, status, APIError{Message: msg})
}

// WriteErrorHint writes an envelope with an actionable hint.
func WriteErrorHint(w http.ResponseWriter, status int, msg, hint string) {
	WriteAPIError(w, status, APIError{Message: msg, Hint: hint})
}
