package accessserver

import "net/http"

// serveLog writes a build's console log, a field the read plane does not
// publish, by asking the scheduler's table under another name.
func (s *Server) serveLog(w http.ResponseWriter, r *http.Request) {
	srv := s
	b, err := srv.Build(1)
	if err != nil {
		writeError(w, err)
		return
	}
	w.Write([]byte(b.Log()))
}

var _ = (*Server).serveLog // reached, so only the rule under test trips
