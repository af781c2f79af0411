package accessserver

// handleOf asks the Nodes view a question outside node.go, under another
// name.
func (s *Server) handleOf(name string) (Node, error) {
	srv := s
	return srv.Nodes.Get(name)
}

var _ = (*Server).handleOf // reached, so only the rule under test trips
