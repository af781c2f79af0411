package api

import (
	"encoding/json"
	"net/http"
	"strconv"
)

// WriteError writes the typed error envelope at its canonical status —
// the one writer for the access server and the feed gateway alike.
func WriteError(w http.ResponseWriter, e *Error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(e.HTTPStatus())
	json.NewEncoder(w).Encode(Envelope{Error: e})
}

// StreamQuery reads what a streaming route's query may carry: the ?from=
// resume cursor (default 0) and, on the sample route, the ?format=
// encoding — "binary" (the default) or "ndjson". A malformed cursor is
// the typed invalid_cursor, so a reconnecting client can tell "restart
// from 0" from a malformed request.
func StreamQuery(r *http.Request, samples bool) (from int, ndjson bool, e *Error) {
	q := r.URL.Query()
	if samples {
		switch q.Get("format") {
		case "", "binary":
		case "ndjson":
			ndjson = true
		default:
			return 0, false, &Error{Code: CodeBadRequest, Message: "?format= must be binary or ndjson"}
		}
	}
	if s := q.Get("from"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			return 0, false, &Error{Code: CodeInvalidCursor, Message: "?from= must be a non-negative integer"}
		}
		from = n
	}
	return from, ndjson, nil
}
