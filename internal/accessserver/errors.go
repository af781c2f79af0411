package accessserver

import (
	"errors"
	"fmt"
	"time"
)

// Typed sentinel errors. Every error the server returns wraps exactly
// one of these, so callers — the HTTP layer above all — branch with
// errors.Is instead of matching message strings, and the v1 error
// envelope maps each sentinel to one HTTP status (ErrNotFound → 404,
// ErrForbidden → 403, ErrInvalid → 400, ErrConflict → 409, anything
// else → 500).
var (
	// ErrNotFound reports a missing resource: unknown job, build, node,
	// device or artifact.
	ErrNotFound = errors.New("accessserver: not found")
	// ErrForbidden reports a permission the user's role lacks.
	ErrForbidden = errors.New("accessserver: forbidden")
	// ErrInvalid reports malformed input: empty job names, bad specs,
	// unparseable bodies.
	ErrInvalid = errors.New("accessserver: invalid request")
	// ErrConflict reports a request that is well-formed but collides
	// with current state: duplicate job names, unapproved revisions,
	// cancelling a finished build.
	ErrConflict = errors.New("accessserver: conflict")
	// ErrNodeLost reports a build that could not be completed because
	// its vantage point died (or never appeared) and the failover
	// budget is spent. The v1 wire status carries it as the node_lost
	// flag.
	ErrNodeLost = errors.New("accessserver: node lost")
	// ErrJobDeleted reports a build whose job was deleted while it sat
	// in the queue.
	ErrJobDeleted = errors.New("accessserver: job deleted")
	// ErrExpired reports a build id whose record aged out of the
	// retention window — it existed, but only a tombstone remains. The
	// v1 status endpoint answers it with an "expired" marker; every
	// other route maps it to 404.
	ErrExpired = errors.New("accessserver: build expired")
	// ErrInsufficientCredits reports a submission rejected by the §5
	// credit economy: the member's ledger balance cannot cover the
	// experiment. The v1 API maps it to 402 (insufficient_credits).
	ErrInsufficientCredits = errors.New("accessserver: insufficient credits")
	// ErrOverloaded reports a submission shed by admission control: the
	// owner is at their in-flight cap, or the queue crossed the shed
	// watermark. The v1 API maps it to 429 (overloaded) and the error
	// envelope carries a machine-readable shed reason.
	ErrOverloaded = errors.New("accessserver: overloaded")
	// ErrPeerLost reports a routed build reclaimed because the peer
	// server executing it went suspect or the relay broke. The scheduler
	// treats it exactly like ErrNodeLost — requeue while the failover
	// budget lasts — and the wire status carries it as node_lost.
	ErrPeerLost = errors.New("accessserver: peer lost")
	// ErrPeerUnavailable reports a cross-server submission that cannot
	// proceed right now: the only vantage point matching the spec lives
	// on a peer that is not online. The v1 API maps it to 503
	// (peer_unavailable) with a Retry-After hint so clients resubmit
	// after a heartbeat interval instead of hammering.
	ErrPeerUnavailable = errors.New("accessserver: peer unavailable")
)

// Shed reasons carried on the wire when admission control rejects a
// submission (api.Error.ShedReason).
const (
	// ShedOwnerCap: the submitting owner already has their in-flight
	// quota of builds queued or running.
	ShedOwnerCap = "owner_cap"
	// ShedQueueWatermark: the dispatch queue crossed the shed
	// watermark; the fleet is saturated regardless of who asks.
	ShedQueueWatermark = "queue_watermark"
)

// overloadError wraps ErrOverloaded with the machine-readable shed
// reason the 429 envelope carries, so clients can tell "you are over
// your quota" (back off yourself) from "the fleet is full" (back off
// globally) without parsing messages.
type overloadError struct {
	shed string
	msg  string
}

func (e *overloadError) Error() string { return e.msg }

// Is makes errors.Is(err, ErrOverloaded) work across the wrap.
func (e *overloadError) Is(target error) bool { return target == ErrOverloaded }

// overloadf builds a typed admission rejection.
func overloadf(shed, format string, args ...any) error {
	return &overloadError{shed: shed, msg: fmt.Sprintf(format, args...)}
}

// ShedReasonOf extracts the typed shed reason from an admission
// rejection ("" for any other error).
func ShedReasonOf(err error) string {
	var oe *overloadError
	if errors.As(err, &oe) {
		return oe.shed
	}
	return ""
}

// peerUnavailableError wraps ErrPeerUnavailable with the retry hint the
// 503 envelope carries as a Retry-After header: one peer heartbeat
// interval, after which the peer may have come back (or its census may
// have stopped advertising the node).
type peerUnavailableError struct {
	msg        string
	retryAfter time.Duration
}

func (e *peerUnavailableError) Error() string { return e.msg }

// Is makes errors.Is(err, ErrPeerUnavailable) work across the wrap.
func (e *peerUnavailableError) Is(target error) bool { return target == ErrPeerUnavailable }

// peerUnavailablef builds a typed cross-server routing rejection.
func peerUnavailablef(retryAfter time.Duration, format string, args ...any) error {
	return &peerUnavailableError{retryAfter: retryAfter, msg: fmt.Sprintf(format, args...)}
}

// RetryAfterOf extracts the retry hint from a peer-unavailable
// rejection (0 for any other error).
func RetryAfterOf(err error) time.Duration {
	var pe *peerUnavailableError
	if errors.As(err, &pe) {
		return pe.retryAfter
	}
	return 0
}

// markedErr builds an error that matches every listed sentinel under
// errors.Is — for failures that belong to two typed families at once
// (a routed build lost with its peer is both ErrPeerLost and, for the
// wire's node_lost flag, ErrNodeLost).
func markedErr(msg string, sentinels ...error) error {
	return &recoveredErr{msg: msg, sentinels: sentinels}
}

// recoveredErr is a failure cause reconstructed from the store: the
// original error value (a wrapped chain) is gone, but the message and
// the typed markers that crossed the WAL survive, so errors.Is keeps
// working against recovered builds and the wire status is byte-
// identical to the pre-crash one.
type recoveredErr struct {
	msg       string
	sentinels []error
}

func (e *recoveredErr) Error() string { return e.msg }

// Is reports whether target is one of the persisted typed markers.
func (e *recoveredErr) Is(target error) bool {
	for _, s := range e.sentinels {
		if target == s {
			return true
		}
	}
	return false
}
