package service

import (
	"errors"
	"fmt"
	"net/http"
)

// ErrorCode is the machine-readable classification every non-2xx /v1 reply
// carries (DESIGN.md §16). Clients dispatch on the code; the message is for
// humans and may change between releases.
type ErrorCode string

// The /v1 error codes. Codes are part of the wire surface (APIRevision):
// adding one is compatible, renaming or removing one is not.
const (
	// CodeBadRequest is the generic client error: malformed body, negative
	// options, out-of-range values.
	CodeBadRequest ErrorCode = "bad_request"
	// CodeUnknownModel, CodeUnknownGate and CodeUnknownFramework reject
	// names outside the supported sets.
	CodeUnknownModel     ErrorCode = "unknown_model"
	CodeUnknownGate      ErrorCode = "unknown_gate"
	CodeUnknownFramework ErrorCode = "unknown_framework"
	// CodeBadCluster rejects unresolvable fleets: unknown GPU types,
	// invalid GPU counts, malformed class lists.
	CodeBadCluster ErrorCode = "bad_cluster"
	// CodeBadTopology rejects invalid rack/spine specs.
	CodeBadTopology ErrorCode = "bad_topology"
	// CodeBadRouting rejects invalid routing specs and malformed
	// /v1/routing gate-count updates.
	CodeBadRouting ErrorCode = "bad_routing"
	// CodeConflictingFields rejects requests that set mutually exclusive
	// fields (cluster/gpus + classes, baseline == framework, routing on a
	// drift plan).
	CodeConflictingFields ErrorCode = "conflicting_fields"
	// CodeGridTooLarge rejects sweeps over the buffered or streaming point
	// caps.
	CodeGridTooLarge ErrorCode = "grid_too_large"
	// CodePlanPending is the 503 a /v1/routing update gets while another
	// update is still computing the drift session's initial plan: there is
	// no stale plan to serve yet, so the client retries.
	CodePlanPending ErrorCode = "plan_pending"
	// CodeInternal is the 5xx fallback: computation failures and panics.
	CodeInternal ErrorCode = "internal"
)

// apiError attaches an ErrorCode to an error. writeError extracts the
// outermost code via errors.As, so canonicalize can wrap lower-level errors
// (lancet.ParseModel, cluster construction) without losing classification.
type apiError struct {
	code ErrorCode
	err  error
}

func (e *apiError) Error() string { return e.err.Error() }
func (e *apiError) Unwrap() error { return e.err }

// coded wraps err with an error code. A nil err returns nil.
func coded(code ErrorCode, err error) error {
	if err == nil {
		return nil
	}
	return &apiError{code: code, err: err}
}

// codedf is coded over fmt.Errorf.
func codedf(code ErrorCode, format string, args ...any) error {
	return &apiError{code: code, err: fmt.Errorf(format, args...)}
}

// errorEnvelope is the structured error object of every non-2xx JSON reply.
type errorEnvelope struct {
	Code    ErrorCode `json:"code"`
	Message string    `json:"message"`
}

// errorResponse is the body of every non-2xx JSON reply:
// {"error": {"code": ..., "message": ...}}.
type errorResponse struct {
	Err errorEnvelope `json:"error"`
}

// writeError renders err as the structured envelope. Uncoded errors default
// by status: 4xx to bad_request, everything else to internal.
func writeError(w http.ResponseWriter, status int, err error) {
	code := CodeInternal
	if status >= 400 && status < 500 {
		code = CodeBadRequest
	}
	var ae *apiError
	if errors.As(err, &ae) {
		code = ae.code
	}
	writeJSON(w, status, errorResponse{Err: errorEnvelope{Code: code, Message: err.Error()}})
}
