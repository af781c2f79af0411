package accessserver

import "net/http"

// legacy is a console route the one build model retired, under a name.
const legacy = "GET /api/builds"

func handlerLegacy(mux *http.ServeMux) {
	mux.HandleFunc(legacy, func(http.ResponseWriter, *http.Request) {})
}

var _ = handlerLegacy // reached, so only the rule under test trips
