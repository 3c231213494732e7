package driver

import "errors"

// Error is a typed wire error from the server. Unwrap it with
// errors.As and branch on Code:
//
//	var te *tdbdriver.Error
//	if errors.As(err, &te) && te.Code == tdbdriver.CodeQuotaConcurrency { ... }
//
// The common operational codes also match sentinel errors through
// errors.Is — even when the retry layer has wrapped the error:
//
//	if errors.Is(err, tdbdriver.ErrQuota) { ... }
type Error struct {
	Code    string
	Message string
	// RetryAfterMS is the server's backoff advice when positive (quota
	// and drain rejections carry it); the retry layer honors it.
	RetryAfterMS int64
}

func (e *Error) Error() string { return "tdb: " + e.Code + ": " + e.Message }

// Is matches the operational sentinels, so errors.Is works across the
// retry layer's wrapping.
func (e *Error) Is(target error) bool {
	switch target {
	case ErrQuota:
		return e.Code == CodeQuotaConcurrency
	case ErrQueueTimeout:
		return e.Code == CodeQueueTimeout
	case ErrDraining:
		return e.Code == CodeDraining
	case ErrSessionExpired:
		return e.Code == CodeSessionExpired
	case ErrResumeHorizon:
		return e.Code == CodeResumeHorizon
	}
	return false
}

// Sentinel errors for the operational wire codes a caller most often
// branches on. They match via errors.Is through any wrapping.
var (
	// ErrQuota: the tenant is at MaxConcurrent and its queue is full.
	ErrQuota = errors.New("tdb: tenant concurrency quota exceeded")
	// ErrQueueTimeout: the request queued past the tenant's QueueTimeout.
	ErrQueueTimeout = errors.New("tdb: admission queue timeout")
	// ErrDraining: the server is shutting down.
	ErrDraining = errors.New("tdb: server draining")
	// ErrSessionExpired: the session idle-expired while a request was in
	// flight.
	ErrSessionExpired = errors.New("tdb: session expired")
	// ErrResumeHorizon: the subscription resume point fell behind the
	// server's bounded replay ring — continuing would silently skip
	// deltas, so the stream fails loudly instead.
	ErrResumeHorizon = errors.New("tdb: resume past replay horizon")
	// ErrSeqViolation: the server sent a delta batch whose seq is not
	// exactly lastSeq+1 — a duplicate, gap, or reorder the driver refuses
	// to paper over.
	ErrSeqViolation = errors.New("tdb: delta sequence violation")
	// ErrBadFrame: a binary result frame from the server is truncated or
	// malformed. Like any decode failure it is retried.
	ErrBadFrame = errors.New("tdb: malformed result frame")
)

// Wire error codes — the protocol's error vocabulary, mirrored from the
// server (the conformance suite pins the two sets together).
const (
	CodeBadRequest       = "bad_request"        // malformed request body or missing field
	CodeParse            = "parse_error"        // quel text did not parse
	CodeTranslate        = "translate_error"    // semantic analysis failed
	CodeBind             = "bind_error"         // parameter arity or kind mismatch
	CodePlan             = "plan_error"         // optimization failed
	CodeExec             = "exec_error"         // execution failed
	CodeCanceled         = "canceled"           // the context canceled a running query
	CodeUnknownSession   = "unknown_session"    // session not open (or idle-expired)
	CodeUnknownStatement = "unknown_statement"  // prepared-statement id not found
	CodeUnknownTenant    = "unknown_tenant"     // tenant not configured
	CodeUnknownRelation  = "unknown_relation"   // append target not in the catalog
	CodeQuotaConcurrency = "quota_concurrency"  // tenant at MaxConcurrent and queue full
	CodeQueueTimeout     = "queue_timeout"      // queued past the tenant's QueueTimeout
	CodeDeclined         = "subscribe_declined" // standing query declined admission
	CodeBreakerOpen      = "breaker_open"       // standing query's workspace breaker tripped
	CodeDraining         = "draining"           // server is shutting down
	CodeLateTuple        = "late_tuple"         // append behind the relation's watermark
	CodeSessionExpired   = "session_expired"    // session idle-expired mid-request
	CodeResumeHorizon    = "resume_horizon"     // replay ring evicted the resume seq
	CodeUnknownResume    = "unknown_resume"     // resume token not registered (restart or teardown)
)
