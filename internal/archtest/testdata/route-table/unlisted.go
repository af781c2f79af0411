package accessserver

import "net/http"

// ghostRoute is a v1 route with no row in README's route table.
const ghostRoute = "GET /api/v1/ghosts"

func handlerGhost(mux *http.ServeMux) {
	mux.HandleFunc(ghostRoute, func(http.ResponseWriter, *http.Request) {})
}

var _ = handlerGhost // reached, so only the rule under test trips
