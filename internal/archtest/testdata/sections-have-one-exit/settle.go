package accessserver

// settleAndShow closes a settled build's feed mid-section, ahead of the
// WAL write that makes the settlement durable.
func (s *Server) settleAndShow(b *Build) {
	s.settleLocked(b, nil)
	s.hub.Close(b.ID)
}

var _ = (*Server).settleAndShow // reached, so only the rule under test trips
