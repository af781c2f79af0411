package accessserver

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"time"

	"batterylab/internal/api"
)

// Handler returns the server's HTTP API: the versioned remote-execution
// routes (handlerV1 in httpv1.go; wire schema in internal/api) and the
// operational ones (handlerOps). Every API request needs a valid user
// token in the Authorization header ("Bearer <token>"); the role matrix
// gates each route. In deployment this sits behind HTTPS only (§3.1) —
// transport security is the listener's concern.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	s.handlerV1(mux)
	s.handlerOps(mux)
	return s.instrument(mux)
}

// auth authenticates the bearer token and checks the permission,
// writing the error response itself on failure.
func (s *Server) auth(w http.ResponseWriter, r *http.Request, perm Permission) *User {
	tok := api.BearerToken(r)
	user, err := s.Users.Authenticate(tok)
	if err != nil {
		if tok != "" && s.cluster.Authorize(tok) {
			// A federated peer holding the shared cluster token: it acts
			// as the synthetic "cluster" principal, whose RolePeer grants
			// exactly what relaying a build needs (submit, status,
			// streams, cancel).
			user = &User{Name: "cluster", Role: RolePeer}
		} else {
			api.WriteError(w, apiError(codeUnauthorized, "missing or invalid token"))
			return nil
		}
	}
	if !Allowed(user.Role, perm) {
		api.WriteError(w, apiError(codeForbidden,
			"role "+user.Role.String()+" may not "+perm.String()))
		return nil
	}
	return user
}

// buildFromPath resolves the {id} path segment to a build, writing the
// error response (400 for a malformed id, 404 for a missing build)
// itself. Authentication runs first.
func (s *Server) buildFromPath(w http.ResponseWriter, r *http.Request) *Build {
	if s.auth(w, r, PermViewConsole) == nil {
		return nil
	}
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		api.WriteError(w, apiError(codeBadRequest, "build id must be an integer"))
		return nil
	}
	b, err := s.Build(id)
	if err != nil {
		writeError(w, err)
		return nil
	}
	return b
}

// writeJSON marshals v up front (so encoding failures can still produce
// a 500 instead of a half-written 200), sets the status and writes the
// body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		api.WriteError(w, apiError(codeInternal, "encoding response: "+err.Error()))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(data, '\n'))
}

// writeError maps a server error to its HTTP status via the typed
// sentinels and writes the v1 error envelope. Unrecognized errors are
// internal (500) — never the blanket 409 of the original console.
func writeError(w http.ResponseWriter, err error) {
	code := codeInternal
	switch {
	case errors.Is(err, ErrExpired):
		// The resource existed but aged out of retention; only the v1
		// build-status route serves the explicit "expired" marker.
		code = codeNotFound
	case errors.Is(err, ErrJobDeleted):
		code = codeNotFound
	case errors.Is(err, ErrNotFound):
		code = codeNotFound
	case errors.Is(err, ErrForbidden):
		code = codeForbidden
	case errors.Is(err, ErrInvalid):
		code = codeBadRequest
	case errors.Is(err, ErrConflict):
		code = codeConflict
	case errors.Is(err, ErrInsufficientCredits):
		// 402: the §5 credit economy rejected the submission.
		code = api.CodeInsufficientCredits
	case errors.Is(err, ErrPeerUnavailable):
		// 503: the submission's only matching vantage point lives on a
		// federated peer that is not online right now. Retry-After hints
		// one peer heartbeat interval — transient by definition.
		if d := RetryAfterOf(err); d > 0 {
			secs := int((d + time.Second - 1) / time.Second)
			w.Header().Set("Retry-After", strconv.Itoa(secs))
		}
		api.WriteError(w, apiError(api.CodePeerUnavailable, err.Error()))
		return
	case errors.Is(err, ErrOverloaded):
		// 429: admission control shed the submission. The envelope
		// carries the typed shed reason so clients can branch without
		// parsing the message.
		e := apiError(api.CodeOverloaded, err.Error())
		e.ShedReason = ShedReasonOf(err)
		api.WriteError(w, e)
		return
	}
	api.WriteError(w, apiError(code, err.Error()))
}
